// Split transactions for an open-ended activity (paper Section 2.2.1,
// following Pu/Kaiser/Hutchinson's motivating scenario): a long-running
// design session periodically *splits off* the parts of its work that are
// finished, letting them commit — and release their resources — while the
// session keeps going, and finally *joins* a helper's work back in.
//
//   $ ./split_transactions

#include <cstdio>
#include <vector>

#include "core/database.h"
#include "etm/split.h"

using namespace ariesrh;

int main() {
  Database db;
  etm::SplitTransactions split(&db);

  // A long-lived design session touches ten design objects.
  TxnId session = *db.Begin();
  for (ObjectId ob = 0; ob < 10; ++ob) {
    if (!db.Set(session, ob, static_cast<int64_t>(ob) * 11).ok()) return 1;
  }
  std::printf("session t%llu holds 10 design objects\n",
              (unsigned long long)session);

  // Objects 0-4 are finished: split them off and commit them now. Another
  // transaction can immediately read them — the session no longer stands
  // in the way.
  auto piece = split.Split(session, {0, 1, 2, 3, 4});
  if (!piece.ok() || !db.Commit(*piece).ok()) return 1;
  std::printf("split off t%llu with objects 0-4 and committed it\n",
              (unsigned long long)*piece);

  TxnId reader = *db.Begin();
  auto v = db.Read(reader, 2);
  std::printf("independent reader sees object 2 = %lld (locks released)\n",
              v.ok() ? (long long)*v : -1);
  auto blocked = db.Read(reader, 7);
  std::printf("object 7 is still the session's: read -> %s\n",
              blocked.status().ToString().c_str());
  (void)db.Commit(reader);

  // A helper transaction prepares more work, then JOINS the session: its
  // updates become the session's responsibility.
  TxnId helper = *db.Begin();
  if (!db.Set(helper, 20, 777).ok()) return 1;
  if (!split.Join(helper, session).ok()) return 1;
  std::printf("helper t%llu joined the session\n", (unsigned long long)helper);

  // The session decides to scrap the unfinished half. Objects 0-4 are safe
  // (they were split off and committed); 5-9 and the joined work roll back.
  if (!db.Abort(session).ok()) return 1;
  std::printf("session aborted\n");

  db.SimulateCrash();
  auto restart = db.StartRecovery();
  if (!restart.ok() || !(*restart)->Await().ok()) return 1;

  bool ok = true;
  for (ObjectId ob = 0; ob < 10; ++ob) {
    const int64_t got = *db.ReadCommitted(ob);
    const int64_t want = ob < 5 ? static_cast<int64_t>(ob) * 11 : 0;
    std::printf("object %llu = %lld (want %lld)\n", (unsigned long long)ob,
                (long long)got, (long long)want);
    ok = ok && got == want;
  }
  const int64_t joined = *db.ReadCommitted(20);
  std::printf("joined object 20 = %lld (want 0)\n", (long long)joined);
  ok = ok && joined == 0;

  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
