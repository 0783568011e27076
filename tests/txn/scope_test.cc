#include "txn/scope.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace ariesrh {
namespace {

TEST(ScopeTest, CoversMatchesInvokerAndRange) {
  Scope scope{/*invoker=*/3, /*first=*/10, /*last=*/20, /*open=*/true};
  EXPECT_TRUE(scope.Covers(3, 10));
  EXPECT_TRUE(scope.Covers(3, 15));
  EXPECT_TRUE(scope.Covers(3, 20));
  EXPECT_FALSE(scope.Covers(3, 9));
  EXPECT_FALSE(scope.Covers(3, 21));
  EXPECT_FALSE(scope.Covers(4, 15));  // wrong invoker
}

TEST(ScopeTest, SinglePointScope) {
  Scope scope{1, 7, 7, true};
  EXPECT_TRUE(scope.Covers(1, 7));
  EXPECT_FALSE(scope.Covers(1, 6));
  EXPECT_FALSE(scope.Covers(1, 8));
}

TEST(ObjectEntryTest, FirstUpdateOpensScope) {
  ObjectEntry entry;
  entry.ExtendOrOpen(5, 100);
  ASSERT_EQ(entry.scopes.size(), 1u);
  EXPECT_EQ(entry.scopes[0], (Scope{5, 100, 100, true}));
  EXPECT_TRUE(entry.HasOpenScopeOf(5));
}

TEST(ObjectEntryTest, SubsequentUpdatesExtendOpenScope) {
  ObjectEntry entry;
  entry.ExtendOrOpen(5, 100);
  entry.ExtendOrOpen(5, 103);
  entry.ExtendOrOpen(5, 110);
  ASSERT_EQ(entry.scopes.size(), 1u);
  EXPECT_EQ(entry.scopes[0], (Scope{5, 100, 110, true}));
}

TEST(ObjectEntryTest, MergeClosesReceivedScopes) {
  ObjectEntry src;
  src.ExtendOrOpen(1, 10);
  src.ExtendOrOpen(1, 12);

  ObjectEntry dst;
  dst.ExtendOrOpen(2, 11);
  dst.MergeFrom(src);

  ASSERT_EQ(dst.scopes.size(), 2u);
  EXPECT_TRUE(dst.scopes[0].open);    // own scope stays open
  EXPECT_FALSE(dst.scopes[1].open);   // received scope frozen
  EXPECT_EQ(dst.scopes[1].invoker, 1u);
  EXPECT_TRUE(dst.HasOpenScopeOf(2));
  EXPECT_FALSE(dst.HasOpenScopeOf(1));
}

TEST(ObjectEntryTest, ReceivedBackScopeIsNotExtended) {
  // t delegates its scope away; the object comes back via another
  // delegation; t's next update must open a NEW scope rather than grow the
  // returned (closed) one — otherwise coverage could double up.
  ObjectEntry original;
  original.ExtendOrOpen(7, 50);
  original.ExtendOrOpen(7, 55);

  ObjectEntry returned;
  returned.MergeFrom(original);  // scope (7,50,55) now closed
  returned.ExtendOrOpen(7, 90);

  ASSERT_EQ(returned.scopes.size(), 2u);
  EXPECT_EQ(returned.scopes[0], (Scope{7, 50, 55, false}));
  EXPECT_EQ(returned.scopes[1], (Scope{7, 90, 90, true}));
}

TEST(ObjectEntryTest, ScopesOfDifferentInvokersCoexist) {
  ObjectEntry entry;
  entry.ExtendOrOpen(1, 10);
  ObjectEntry other;
  other.ExtendOrOpen(2, 11);
  entry.MergeFrom(other);
  entry.ExtendOrOpen(1, 14);  // still extends t1's own open scope
  ASSERT_EQ(entry.scopes.size(), 2u);
  EXPECT_EQ(entry.scopes[0], (Scope{1, 10, 14, true}));
  EXPECT_EQ(entry.scopes[1], (Scope{2, 11, 11, false}));
}

TEST(ObjectEntryTest, ToStringRendersScopes) {
  Scope scope{3, 5, 9, false};
  EXPECT_EQ(scope.ToString(), "(t3, 5, 9)");
  Scope open{3, 5, 9, true};
  EXPECT_EQ(open.ToString(), "(t3, 5, 9, open)");
}

void ExpectSameList(const ObList& a, const ObList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (auto x = a.begin(), y = b.begin(); x != a.end(); ++x, ++y) {
    EXPECT_EQ(x->first, y->first);
    EXPECT_EQ(x->second.delegated_from, y->second.delegated_from);
    EXPECT_TRUE(x->second.scopes == y->second.scopes) << "object " << x->first;
    EXPECT_EQ(x->second.has_set_update, y->second.has_set_update);
  }
}

// A one-at-a-time reference for TransferObjects: find, move, erase.
size_t TransferOneByOne(ObList* from, ObList* to, TxnId tor,
                        const std::vector<ObjectId>& objects,
                        const std::vector<std::pair<Lsn, Lsn>>& ranges,
                        std::vector<ObjectId>* erased) {
  size_t moved = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    auto it = from->find(objects[i]);
    if (it == from->end()) continue;
    ObjectEntry& dst = (*to)[objects[i]];
    dst.delegated_from = tor;
    if (i < ranges.size() && ranges[i].first != kInvalidLsn) {
      moved += TransferScopeRange(&it->second, &dst, ranges[i].first,
                                  ranges[i].second);
      if (!it->second.scopes.empty()) continue;
    } else {
      moved += it->second.scopes.size();
      dst.MergeFrom(it->second);
    }
    from->erase(it);
    erased->push_back(objects[i]);
  }
  return moved;
}

// Runs TransferObjects and the reference on the same two lists and expects
// the same lists, scope count and erased objects.
void ExpectMatchesReference(const std::vector<ObjectId>& objects,
                            const std::vector<std::pair<Lsn, Lsn>>& ranges) {
  ObList tor_list;
  ObList tee_list;
  for (ObjectId ob = 0; ob < 40; ++ob) {
    tor_list[ob].ExtendOrOpen(/*txn=*/1, 10 + ob);
    tor_list[ob].ExtendOrOpen(1, 100 + ob);
    if (ob % 4 == 0) tee_list[ob].ExtendOrOpen(/*txn=*/2, 200 + ob);
  }
  tee_list[1000].ExtendOrOpen(2, 300);

  ObList ref_tor = tor_list;
  ObList ref_tee = tee_list;
  std::vector<ObjectId> ref_erased;
  const size_t ref_moved =
      TransferOneByOne(&ref_tor, &ref_tee, 1, objects, ranges, &ref_erased);

  ErasedObjects erased;
  const size_t moved =
      TransferObjects(&tor_list, &tee_list, 1, objects, ranges, &erased);
  EXPECT_EQ(moved, ref_moved);
  ExpectSameList(tor_list, ref_tor);
  ExpectSameList(tee_list, ref_tee);
  EXPECT_EQ(erased, ref_erased);
}

TEST(TransferObjectsTest, MatchesOneAtATimeTransfer) {
  // Unsorted, with an object the delegator does not hold, and one ranged
  // transfer that leaves part of its scope behind.
  const std::vector<ObjectId> objects = {33, 4, 17, 99, 0, 8, 39, 5};
  std::vector<std::pair<Lsn, Lsn>> ranges(objects.size(),
                                          {kInvalidLsn, kInvalidLsn});
  ranges[2] = {20, 30};  // object 17: its scope is [27, 117]
  ExpectMatchesReference(objects, ranges);
}

TEST(TransferObjectsTest, OneObjectMatchesOneAtATimeTransfer) {
  ExpectMatchesReference({4}, {});           // whole, into a fresh entry
  ExpectMatchesReference({8}, {});           // whole, into an existing entry
  ExpectMatchesReference({99}, {});          // not held: nothing moves
  ExpectMatchesReference({17}, {{20, 30}});  // a retained prefix stays
  ExpectMatchesReference({5}, {{1, 500}});   // the range empties the entry
}

TEST(TransferObjectsTest, RepeatedObjectMatchesOneAtATimeTransfer) {
  // Moved whole, then listed again: the second mention finds nothing.
  ExpectMatchesReference({4, 9, 4}, {});
  // Object 17's scope is [27, 117]: two disjoint ranges each take a piece,
  // and the delegator keeps the middle.
  ExpectMatchesReference({17, 17}, {{20, 30}, {100, 120}});
  // A range takes a piece, then a whole move takes the rest.
  ExpectMatchesReference({17, 17}, {{20, 30}, {kInvalidLsn, kInvalidLsn}});
}

TEST(TransferScopeRangeTest, DisjointScopeStaysWithDelegator) {
  ObjectEntry src;
  src.ExtendOrOpen(1, 10);
  src.ExtendOrOpen(1, 20);
  ObjectEntry dst;
  EXPECT_EQ(TransferScopeRange(&src, &dst, 30, 40), 0u);
  ASSERT_EQ(src.scopes.size(), 1u);
  EXPECT_EQ(src.scopes[0], (Scope{1, 10, 20, true}));
  EXPECT_TRUE(dst.scopes.empty());
}

TEST(TransferScopeRangeTest, CoveringRangeMovesTheScopeClosed) {
  ObjectEntry src;
  src.ExtendOrOpen(1, 10);
  src.ExtendOrOpen(1, 20);
  ObjectEntry dst;
  EXPECT_EQ(TransferScopeRange(&src, &dst, 5, 25), 1u);
  EXPECT_TRUE(src.scopes.empty());
  ASSERT_EQ(dst.scopes.size(), 1u);
  EXPECT_EQ(dst.scopes[0], (Scope{1, 10, 20, false}));
}

TEST(TransferScopeRangeTest, SplitKeepsClosedPrefixAndOpenSuffix) {
  ObjectEntry src;
  src.ExtendOrOpen(1, 10);
  src.ExtendOrOpen(1, 50);
  ObjectEntry dst;
  EXPECT_EQ(TransferScopeRange(&src, &dst, 20, 30), 1u);
  ASSERT_EQ(src.scopes.size(), 2u);
  EXPECT_EQ(src.scopes[0], (Scope{1, 10, 19, false}));
  EXPECT_EQ(src.scopes[1], (Scope{1, 31, 50, true}));
  ASSERT_EQ(dst.scopes.size(), 1u);
  EXPECT_EQ(dst.scopes[0], (Scope{1, 20, 30, false}));
  // The open suffix is still the growing edge.
  src.ExtendOrOpen(1, 60);
  EXPECT_EQ(src.scopes[1], (Scope{1, 31, 60, true}));
}

TEST(TransferScopeRangeTest, ClosedScopeSuffixStaysClosed) {
  ObjectEntry src;
  src.scopes.push_back(Scope{2, 10, 50, false});  // received earlier
  ObjectEntry dst;
  EXPECT_EQ(TransferScopeRange(&src, &dst, 10, 30), 1u);
  ASSERT_EQ(src.scopes.size(), 1u);
  EXPECT_EQ(src.scopes[0], (Scope{2, 31, 50, false}));
  EXPECT_EQ(dst.scopes[0], (Scope{2, 10, 30, false}));
}

TEST(TransferScopeRangeTest, MovesEveryOverlappingScope) {
  ObjectEntry src;
  src.scopes.push_back(Scope{2, 5, 8, false});
  src.scopes.push_back(Scope{3, 12, 18, false});
  src.scopes.push_back(Scope{4, 40, 45, false});
  src.ExtendOrOpen(1, 15);
  ObjectEntry dst;
  EXPECT_EQ(TransferScopeRange(&src, &dst, 7, 20), 3u);
  ASSERT_EQ(src.scopes.size(), 2u);
  EXPECT_EQ(src.scopes[0], (Scope{2, 5, 6, false}));
  EXPECT_EQ(src.scopes[1], (Scope{4, 40, 45, false}));
  ASSERT_EQ(dst.scopes.size(), 3u);
  EXPECT_EQ(dst.scopes[0], (Scope{2, 7, 8, false}));
  EXPECT_EQ(dst.scopes[1], (Scope{3, 12, 18, false}));
  EXPECT_EQ(dst.scopes[2], (Scope{1, 15, 15, false}));
}

TEST(TransferScopeRangeTest, SetFlagFollowsTheSplit) {
  ObjectEntry src;
  src.ExtendOrOpen(1, 10);
  src.ExtendOrOpen(1, 50);
  src.has_set_update = true;
  ObjectEntry dst;
  TransferScopeRange(&src, &dst, 20, 30);
  EXPECT_TRUE(src.has_set_update);
  EXPECT_TRUE(dst.has_set_update);
}

TEST(TransferObjectsTest, DelegateeListStaysInObjectOrder) {
  ObList tor;
  ObList tee;
  for (ObjectId ob : {50, 3, 27, 8, 1000, 0}) tor[ob].ExtendOrOpen(1, 10 + ob);
  tee[26].ExtendOrOpen(2, 5);
  const std::vector<ObjectId> objects = {1000, 27, 0, 50, 8, 3};
  TransferObjects(&tor, &tee, 1, objects, {});
  EXPECT_TRUE(tor.empty());
  std::vector<ObjectId> order;
  for (const auto& [ob, entry] : tee) order.push_back(ob);
  EXPECT_EQ(order, (std::vector<ObjectId>{0, 3, 8, 26, 27, 50, 1000}));
}

TEST(TransferObjectsTest, ErasedFollowsArgumentOrder) {
  ObList tor;
  ObList tee;
  for (ObjectId ob = 0; ob < 10; ++ob) tor[ob].ExtendOrOpen(1, 10 + ob);
  ErasedObjects erased = {77, 78};  // stale contents are dropped
  const std::vector<ObjectId> objects = {9, 2, 42, 5};
  TransferObjects(&tor, &tee, 1, objects, {}, &erased);
  EXPECT_EQ(erased, (ErasedObjects{9, 2, 5}));
  EXPECT_EQ(tor.size(), 7u);
  EXPECT_EQ(tee.size(), 3u);
}

TEST(TransferObjectsTest, WorksWithoutAnErasedList) {
  ObList tor;
  ObList tee;
  tor[1].ExtendOrOpen(1, 10);
  tor[2].ExtendOrOpen(1, 11);
  const std::vector<ObjectId> objects = {2, 1};
  EXPECT_EQ(TransferObjects(&tor, &tee, 1, objects, {}), 2u);
  EXPECT_TRUE(tor.empty());
  EXPECT_EQ(tee.size(), 2u);
}

TEST(TransferObjectsTest, ReceivingEntriesRecordTheLatestDelegator) {
  ObList t1;
  ObList t2;
  ObList t3;
  t1[4].ExtendOrOpen(1, 10);
  const std::vector<ObjectId> objects = {4};
  TransferObjects(&t1, &t2, /*tor=*/1, objects, {});
  EXPECT_EQ(t2.at(4).delegated_from, 1u);
  TransferObjects(&t2, &t3, /*tor=*/2, objects, {});
  EXPECT_TRUE(t2.empty());
  ASSERT_EQ(t3.at(4).scopes.size(), 1u);
  EXPECT_EQ(t3.at(4).delegated_from, 2u);
  EXPECT_EQ(t3.at(4).scopes[0], (Scope{1, 10, 10, false}));
}

TEST(TransferObjectsTest, ReturnedScopeOpensAFreshOneOnUpdate) {
  ObList t1;
  ObList t2;
  t1[4].ExtendOrOpen(1, 10);
  t1[4].ExtendOrOpen(1, 12);
  const std::vector<ObjectId> objects = {4};
  TransferObjects(&t1, &t2, 1, objects, {});
  TransferObjects(&t2, &t1, 2, objects, {});
  ObjectEntry& entry = t1.at(4);
  EXPECT_EQ(entry.delegated_from, 2u);
  EXPECT_FALSE(entry.HasOpenScopeOf(1));
  entry.ExtendOrOpen(1, 20);
  ASSERT_EQ(entry.scopes.size(), 2u);
  EXPECT_EQ(entry.scopes[0], (Scope{1, 10, 12, false}));
  EXPECT_EQ(entry.scopes[1], (Scope{1, 20, 20, true}));
}

TEST(TransferObjectsTest, DisjointRangeMatchesOneAtATimeTransfer) {
  // Object 17's scope is [27, 117]: the range misses it, so nothing moves
  // and the delegator keeps its entry.
  ExpectMatchesReference({17}, {{1, 5}});
  ExpectMatchesReference({17, 3}, {{200, 300}, {kInvalidLsn, kInvalidLsn}});
}

TEST(TransferObjectsTest, AllRangedBatchMatchesOneAtATimeTransfer) {
  // Every object ranged: some emptied, some split, one not held.
  ExpectMatchesReference({12, 30, 7, 99, 21},
                         {{1, 500}, {50, 120}, {17, 17}, {1, 2}, {31, 131}});
}

TEST(TransferObjectsTest, WholeListMatchesOneAtATimeTransfer) {
  std::vector<ObjectId> objects;
  for (ObjectId ob = 40; ob-- > 0;) objects.push_back(ob);  // descending
  ExpectMatchesReference(objects, {});
}

}  // namespace
}  // namespace ariesrh
