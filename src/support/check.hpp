#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

/// Error-handling policy of the library.
///
/// The tool chain is a *library* first, so violated preconditions and broken
/// invariants raise exceptions instead of aborting the host process. All
/// errors derive from `hca::Error` so callers can catch one type.
namespace hca {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user input (malformed DDG, inconsistent machine description, ...).
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// Internal invariant broken: a bug in this library.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throwCheckFailure(const char* kind, const char* expr,
                                    const char* file, int line,
                                    const std::string& message);
}  // namespace detail

}  // namespace hca

/// The failing branch of HCA_REQUIRE / HCA_CHECK: the message is formatted
/// and thrown from a cold, never-inlined lambda, so a passing check costs a
/// compare and a branch and checked accessors stay small enough to inline.
#define HCA_DETAIL_CHECK(kind, cond, msg)                                   \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      [&]() __attribute__((noinline, cold)) {                               \
        ::std::ostringstream hca_os_;                                       \
        hca_os_ << msg; /* NOLINT */                                        \
        ::hca::detail::throwCheckFailure(kind, #cond, __FILE__, __LINE__,   \
                                         hca_os_.str());                    \
      }();                                                                  \
    }                                                                       \
  } while (false)

/// Validates user-facing preconditions; throws InvalidArgumentError.
#define HCA_REQUIRE(cond, msg) HCA_DETAIL_CHECK("precondition", cond, msg)

/// Validates internal invariants; throws InternalError.
#define HCA_CHECK(cond, msg) HCA_DETAIL_CHECK("invariant", cond, msg)

/// Marks unreachable code paths.
#define HCA_UNREACHABLE(msg)                                                \
  ::hca::detail::throwCheckFailure("unreachable", "false", __FILE__,        \
                                   __LINE__, (msg))
