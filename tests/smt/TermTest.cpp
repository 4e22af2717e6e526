//===- tests/smt/TermTest.cpp ---------------------------------------------===//

#include "smt/Term.h"

#include <gtest/gtest.h>

using namespace regel::smt;

TEST(SatArith, AddSaturates) {
  EXPECT_EQ(satAdd(2, 3), 5);
  EXPECT_EQ(satAdd(Infinity, 1), Infinity);
  EXPECT_EQ(satAdd(1, Infinity), Infinity);
  EXPECT_EQ(satAdd(Infinity - 1, 2), Infinity);
  EXPECT_EQ(satAdd(0, 0), 0);
}

TEST(SatArith, MulSaturates) {
  EXPECT_EQ(satMul(3, 4), 12);
  EXPECT_EQ(satMul(0, Infinity), 0);
  EXPECT_EQ(satMul(Infinity, 0), 0);
  EXPECT_EQ(satMul(Infinity, 2), Infinity);
  EXPECT_EQ(satMul(Infinity / 2 + 1, 2), Infinity);
}

TEST(Term, ConstantFolding) {
  TermPtr T = Term::add(Term::constant(2), Term::constant(3));
  EXPECT_EQ(T->getKind(), TermKind::Const);
  EXPECT_EQ(T->getValue(), 5);
  T = Term::mul(Term::constant(4), Term::constant(5));
  EXPECT_EQ(T->getValue(), 20);
}

TEST(Term, IdentityFolding) {
  TermPtr V = Term::var(0);
  EXPECT_EQ(Term::add(Term::constant(0), V), V);
  EXPECT_EQ(Term::add(V, Term::constant(0)), V);
  EXPECT_EQ(Term::mul(Term::constant(1), V), V);
  EXPECT_EQ(Term::mul(V, Term::constant(1)), V);
  EXPECT_EQ(Term::mul(V, Term::constant(0))->getValue(), 0);
}

TEST(Term, MinMaxFolding) {
  TermPtr V = Term::var(0);
  EXPECT_EQ(Term::min(Term::infinity(), V), V);
  EXPECT_EQ(Term::max(Term::constant(0), V), V);
  EXPECT_EQ(Term::min(Term::constant(3), Term::constant(7))->getValue(), 3);
  EXPECT_EQ(Term::max(Term::constant(3), Term::constant(7))->getValue(), 7);
}

TEST(Term, IntervalEvalMonotone) {
  // t = 2*k0 + k1 over k0 in [1,5], k1 in [0,3] -> [2, 13].
  TermPtr T = Term::add(Term::mul(Term::constant(2), Term::var(0)),
                        Term::var(1));
  std::vector<Interval> Dom{{1, 5}, {0, 3}};
  Interval I = T->eval(Dom);
  EXPECT_EQ(I.Lo, 2);
  EXPECT_EQ(I.Hi, 13);
}

TEST(Term, IntervalEvalWithInfinity) {
  TermPtr T = Term::add(Term::var(0), Term::infinity());
  std::vector<Interval> Dom{{1, 2}};
  Interval I = T->eval(Dom);
  EXPECT_EQ(I.Lo, Infinity);
  EXPECT_EQ(I.Hi, Infinity);
}

TEST(Term, PointEvalMatchesIntervalOnPoints) {
  TermPtr T = Term::max(Term::mul(Term::var(0), Term::var(1)),
                        Term::min(Term::var(0), Term::constant(4)));
  std::vector<int64_t> Assign{3, 5};
  std::vector<Interval> Dom{{3, 3}, {5, 5}};
  EXPECT_EQ(T->evalPoint(Assign), T->eval(Dom).Lo);
  EXPECT_EQ(T->evalPoint(Assign), 15);
}

TEST(Term, Printing) {
  // Commutative operands print in canonical order: constants sort before
  // variables under Term::compare.
  TermPtr T = Term::add(Term::var(0), Term::constant(2));
  EXPECT_EQ(T->str(), "(2 + k0)");
  EXPECT_EQ(Term::infinity()->str(), "inf");
}

TEST(Term, HashConsing) {
  // Structurally equal terms are pointer-equal, commutative operands in
  // either order included.
  EXPECT_EQ(Term::add(Term::var(0), Term::constant(2)),
            Term::add(Term::constant(2), Term::var(0)));
  EXPECT_EQ(Term::mul(Term::var(1), Term::var(0)),
            Term::mul(Term::var(0), Term::var(1)));
  EXPECT_NE(Term::add(Term::var(0), Term::constant(2)),
            Term::add(Term::var(0), Term::constant(3)));
  // Stored structural hashes agree for equal terms.
  EXPECT_EQ(Term::min(Term::var(2), Term::var(7))->hash(),
            Term::min(Term::var(7), Term::var(2))->hash());
}
