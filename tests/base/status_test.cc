#include "src/base/status.h"

#include <gtest/gtest.h>

#include <memory>

namespace concord {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllErrorConstructorsSetCodes) {
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

StatusOr<int> FortyTwo() { return 42; }

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = FortyTwo();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 7);
}

Status FailsFast() {
  CONCORD_RETURN_IF_ERROR(InternalError("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsFast();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "inner");
}

}  // namespace
}  // namespace concord
