#pragma once

/// \file error.hpp
/// Error-handling primitives shared across all AdaFlow libraries.
///
/// AdaFlow uses exceptions for contract violations (programming errors,
/// malformed configurations) and throws only types derived from
/// adaflow::Error so callers can catch the whole family at API boundaries.

#include <stdexcept>
#include <string>

namespace adaflow {

/// Base class of every exception thrown by AdaFlow libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller-supplied configuration is inconsistent or out of range.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

/// Tensor/layer shapes do not line up.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error("shape error: " + what) {}
};

/// A dataflow folding constraint (PE/SIMD divisibility) is violated.
class FoldingError : public Error {
 public:
  explicit FoldingError(const std::string& what) : Error("folding error: " + what) {}
};

/// A requested entity (model version, accelerator, layer) does not exist.
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error("not found: " + what) {}
};

/// Throws ConfigError with \p message when \p condition is false.
void require(bool condition, const std::string& message);

/// Literal-message overload: the std::string is only built on failure, so a
/// check on a per-event path costs one branch. A message that needs
/// concatenation belongs inside `if (!condition) throw ConfigError(...)` on
/// such a path, for the same reason.
inline void require(bool condition, const char* message) {
  if (!condition) {
    throw ConfigError(message);
  }
}

}  // namespace adaflow
