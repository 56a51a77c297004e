#include "adaflow/nn/gemm.hpp"

#include <cstring>
#include <vector>

namespace adaflow::nn {

namespace {

// Four floats in one SSE/NEON register (GCC/Clang vector extension). Its
// arithmetic is element-wise IEEE single precision, the same operations
// the scalar loops perform, so vectorising across outputs keeps every bit.
typedef float Vec4 __attribute__((vector_size(16)));
constexpr std::int64_t kLanes = 4;

Vec4 load(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// c[0, 4*kVecs) += a[k * a_step] * b[k * ldb + (0, 4*kVecs)] for k ascending,
/// skipping zero a. The outputs stay in registers across the whole k loop.
template <int kVecs>
void axpy_tile(std::int64_t k_count, const float* a, std::int64_t a_step, const float* b,
               std::int64_t ldb, float* c) {
  Vec4 acc[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    acc[v] = load(c + v * kLanes);
  }
  for (std::int64_t k = 0; k < k_count; ++k) {
    const float a_val = a[k * a_step];
    if (a_val == 0.0f) {
      continue;  // quantized weights are often exactly zero
    }
    const float* b_row = b + k * ldb;
    for (int v = 0; v < kVecs; ++v) {
      acc[v] += a_val * load(b_row + v * kLanes);
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    store(c + v * kLanes, acc[v]);
  }
}

/// C[M,N] += A * B[K,N] with A(m, k) = a[m * a_m_step + k * a_k_step]: the
/// common body of gemm_nn and gemm_tn. Column tiles run outermost so that
/// one tile of B stays in L1 across all rows of C.
void gemm_axpy(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
               std::int64_t a_m_step, std::int64_t a_k_step, const float* b, float* c) {
  constexpr std::int64_t kWide = 8 * kLanes;
  std::int64_t n = 0;
  for (; n + kWide <= n_count; n += kWide) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      axpy_tile<8>(k_count, a + m * a_m_step, a_k_step, b + n, n_count, c + m * n_count + n);
    }
  }
  for (; n + kLanes <= n_count; n += kLanes) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      axpy_tile<1>(k_count, a + m * a_m_step, a_k_step, b + n, n_count, c + m * n_count + n);
    }
  }
  for (; n < n_count; ++n) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      const float* a_row = a + m * a_m_step;
      float acc = c[m * n_count + n];
      for (std::int64_t k = 0; k < k_count; ++k) {
        const float a_val = a_row[k * a_k_step];
        if (a_val != 0.0f) {
          acc += a_val * b[k * n_count + n];
        }
      }
      c[m * n_count + n] = acc;
    }
  }
}

/// Rows of C one dot-product tile covers: two registers of output rows.
constexpr std::int64_t kDotRows = 2 * kLanes;

/// sums[j][r] = +0 + sum over k ascending of at[k * ld + r] * b[j * k_count + k]
/// for kCols columns j and kDotRows rows r.
template <int kCols>
void dot_tile(std::int64_t k_count, const float* at, std::int64_t ld, const float* b,
              float (*sums)[kDotRows]) {
  Vec4 lo[kCols] = {};
  Vec4 hi[kCols] = {};
  for (std::int64_t k = 0; k < k_count; ++k) {
    const Vec4 a_lo = load(at + k * ld);
    const Vec4 a_hi = load(at + k * ld + kLanes);
    for (int j = 0; j < kCols; ++j) {
      const float b_val = b[j * k_count + k];
      lo[j] += a_lo * b_val;
      hi[j] += a_hi * b_val;
    }
  }
  for (int j = 0; j < kCols; ++j) {
    store(sums[j], lo[j]);
    store(sums[j] + kLanes, hi[j]);
  }
}

}  // namespace

void gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_axpy(m_count, n_count, k_count, a, k_count, 1, b, c);
}

void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_axpy(m_count, n_count, k_count, a, 1, m_count, b, c);
}

void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  // A^T with the rows of C padded to whole tiles, so that kDotRows
  // independent outputs form two vectors per k.
  const std::int64_t ld = (m_count + kDotRows - 1) / kDotRows * kDotRows;
  std::vector<float> at(static_cast<std::size_t>(k_count * ld), 0.0f);
  for (std::int64_t m = 0; m < m_count; ++m) {
    for (std::int64_t k = 0; k < k_count; ++k) {
      at[static_cast<std::size_t>(k * ld + m)] = a[m * k_count + k];
    }
  }
  constexpr int kCols = 4;
  float sums[kCols][kDotRows];
  for (std::int64_t m0 = 0; m0 < m_count; m0 += kDotRows) {
    const std::int64_t rows = m_count - m0 < kDotRows ? m_count - m0 : kDotRows;
    const auto add_sums = [&](std::int64_t n0, int cols) {
      for (int j = 0; j < cols; ++j) {
        for (std::int64_t r = 0; r < rows; ++r) {
          c[(m0 + r) * n_count + n0 + j] += sums[j][r];
        }
      }
    };
    std::int64_t n = 0;
    for (; n + kCols <= n_count; n += kCols) {
      dot_tile<kCols>(k_count, at.data() + m0, ld, b + n * k_count, sums);
      add_sums(n, kCols);
    }
    for (; n < n_count; ++n) {
      dot_tile<1>(k_count, at.data() + m0, ld, b + n * k_count, sums);
      add_sums(n, 1);
    }
  }
}

}  // namespace adaflow::nn
