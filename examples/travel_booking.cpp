// The paper's nested-transaction trip example (Section 2.2.2), synthesized
// from delegation: a trip books an airline seat and a hotel room as
// subtransactions. If either reservation fails the whole trip unwinds —
// including the already-"committed" airline leg, whose changes were only
// inherited by the trip, never made durable.
//
//   $ ./travel_booking            # happy path then failure path

#include <cstdio>

#include "core/database.h"
#include "etm/nested.h"

using namespace ariesrh;

namespace {

constexpr ObjectId kSeatsSold = 100;   // airline inventory counter
constexpr ObjectId kRoomsSold = 200;   // hotel inventory counter
constexpr ObjectId kItinerary = 300;   // customer's itinerary record

// One reservation subtransaction: bumps an inventory counter, "fails" by
// returning a non-OK status before committing.
Status Reserve(Database& db, etm::NestedTransactions& nested, TxnId trip,
               ObjectId counter, bool succeed) {
  auto child_or = nested.BeginChild(trip);
  ARIESRH_RETURN_IF_ERROR(child_or.status());
  TxnId child = *child_or;
  ARIESRH_RETURN_IF_ERROR(db.Add(child, counter, 1));
  if (!succeed) {
    // The reservation system rejected us; the subtransaction aborts and
    // its tentative changes vanish (failure atomicity w.r.t. the parent).
    ARIESRH_RETURN_IF_ERROR(nested.Abort(child));
    return Status::Aborted("reservation declined");
  }
  // Success: commit the child. Per the paper, this delegates its updates
  // to the trip — the trip now owns their fate.
  return nested.Commit(child);
}

int BookTrip(Database& db, bool hotel_available) {
  etm::NestedTransactions nested(&db);
  TxnId trip = *nested.BeginRoot();
  std::printf("trip t%llu: reserving...\n", (unsigned long long)trip);

  Status airline = Reserve(db, nested, trip, kSeatsSold, /*succeed=*/true);
  std::printf("  airline: %s\n", airline.ToString().c_str());
  if (!airline.ok()) {
    (void)nested.Abort(trip);
    return 1;
  }

  Status hotel = Reserve(db, nested, trip, kRoomsSold, hotel_available);
  std::printf("  hotel: %s\n", hotel.ToString().c_str());
  if (!hotel.ok()) {
    // Cancel the trip: the airline seat we already "committed" is released
    // too, because the trip — not the airline subtransaction — was
    // responsible for it.
    Status cancel = nested.Abort(trip);
    std::printf("  trip canceled: %s\n", cancel.ToString().c_str());
    return 1;
  }

  Status record = db.Set(trip, kItinerary, 1);
  if (!record.ok() || !nested.Commit(trip).ok()) {
    (void)nested.Abort(trip);
    return 1;
  }
  std::printf("  trip booked!\n");
  return 0;
}

void PrintInventory(Database& db, const char* when) {
  std::printf("%s: seats_sold=%lld rooms_sold=%lld itinerary=%lld\n", when,
              (long long)*db.ReadCommitted(kSeatsSold),
              (long long)*db.ReadCommitted(kRoomsSold),
              (long long)*db.ReadCommitted(kItinerary));
}

}  // namespace

int main() {
  Database db;

  std::printf("--- attempt 1: hotel is full ---\n");
  BookTrip(db, /*hotel_available=*/false);
  PrintInventory(db, "after failed attempt");
  if (*db.ReadCommitted(kSeatsSold) != 0) {
    std::printf("ERROR: airline seat leaked!\n");
    return 1;
  }

  std::printf("--- attempt 2: hotel has rooms ---\n");
  BookTrip(db, /*hotel_available=*/true);
  PrintInventory(db, "after booked trip");

  // Prove durability: crash and recover.
  db.SimulateCrash();
  auto restart = db.StartRecovery();
  if (!restart.ok() || !(*restart)->Await().ok()) {
    std::printf("recovery failed\n");
    return 1;
  }
  PrintInventory(db, "after crash+recovery");

  const bool ok = *db.ReadCommitted(kSeatsSold) == 1 &&
                  *db.ReadCommitted(kRoomsSold) == 1 &&
                  *db.ReadCommitted(kItinerary) == 1;
  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
