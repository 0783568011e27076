#include "txn/scope.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  std::sort(ref_erased.begin(), ref_erased.end());

  ErasedObjects erased;
  const size_t moved =
      TransferObjects(&tor_list, &tee_list, 1, objects, ranges, &erased);
  EXPECT_EQ(moved, ref_moved);
  ExpectSameList(tor_list, ref_tor);
  ExpectSameList(tee_list, ref_tee);
  EXPECT_TRUE(erased == ref_erased);
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

}  // namespace
}  // namespace ariesrh
