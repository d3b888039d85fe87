#include "src/util/require.h"

#include <gtest/gtest.h>

#include <string>

namespace anyqos::util {
namespace {

TEST(Require, PassesOnTrue) { EXPECT_NO_THROW(require(true, "fine")); }

TEST(Require, ThrowsInvalidArgumentOnFalse) {
  EXPECT_THROW(require(false, "bad input"), std::invalid_argument);
}

TEST(Require, MessageIsPreserved) {
  try {
    require(false, "specific message");
    FAIL() << "require should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(Require, DistinctFromInvariantError) {
  // A precondition failure is the caller's fault, not a library invariant:
  // it must NOT be catchable as InvariantError.
  EXPECT_THROW(
      {
        try {
          require(false, "caller error");
        } catch (const InvariantError&) {
          FAIL() << "require must not throw InvariantError";
        }
      },
      std::invalid_argument);
}

TEST(Ensure, PassesOnTrue) { EXPECT_NO_THROW(ensure(true, "fine")); }

TEST(Ensure, ThrowsInvariantErrorOnFalse) {
  EXPECT_THROW(ensure(false, "broken invariant"), InvariantError);
}

TEST(Ensure, InvariantErrorIsALogicError) {
  EXPECT_THROW(ensure(false, "broken"), std::logic_error);
}

TEST(Ensure, MessageIsPreserved) {
  try {
    ensure(false, "ledger out of balance");
    FAIL() << "ensure should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_STREQ(e.what(), "ledger out of balance");
  }
}

TEST(Ensure, CatchableAsLogicErrorWithMessage) {
  try {
    ensure(false, "specific invariant");
    FAIL() << "ensure should have thrown";
  } catch (const std::logic_error& e) {  // the documented base-class contract
    EXPECT_STREQ(e.what(), "specific invariant");
  }
}

TEST(Require, LazyMessageBuiltOnlyOnFailure) {
  int built = 0;
  const auto message = [&] {
    ++built;
    return "flow not active: " + std::to_string(42);
  };
  EXPECT_NO_THROW(require(true, message));
  EXPECT_EQ(built, 0);
  try {
    require(false, message);
    FAIL() << "require should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flow not active: 42");
  }
  EXPECT_EQ(built, 1);
}

TEST(Ensure, LazyMessageBuiltOnlyOnFailure) {
  int built = 0;
  const auto message = [&] {
    ++built;
    return std::string("slot ") + std::to_string(7) + " out of range";
  };
  EXPECT_NO_THROW(ensure(true, message));
  EXPECT_EQ(built, 0);
  try {
    ensure(false, message);
    FAIL() << "ensure should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_STREQ(e.what(), "slot 7 out of range");
  }
  EXPECT_EQ(built, 1);
}

TEST(InvariantErrorType, ConstructibleAndCatchableAsLogicError) {
  const InvariantError error("direct construction");
  EXPECT_STREQ(error.what(), "direct construction");
  try {
    throw InvariantError("thrown directly");
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "thrown directly");
  }
}

TEST(Unreachable, AlwaysThrows) { EXPECT_THROW(unreachable("spot"), InvariantError); }

TEST(Unreachable, MentionsLocation) {
  try {
    unreachable("switch arm");
    FAIL() << "unreachable should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("switch arm"), std::string::npos);
  }
}

}  // namespace
}  // namespace anyqos::util
