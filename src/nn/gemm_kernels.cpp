// The one source of the GEMM kernels, built once per ISA variant: compiled
// as itself it is the baseline variant (SSE2 on x86-64), and
// gemm_kernels_avx2.cpp builds it again with -mavx2. The variants differ
// only in the width of Vec. Each lane performs the same IEEE single-precision
// multiply and add the scalar loop would, in the same order, so every
// variant computes the same bits (the contract in gemm.hpp).
//
// Nothing here may use a template or inline function with external linkage
// (no std containers or algorithms). The linker keeps one copy of each such
// function for the whole program, and an AVX2 copy of, say, a std::vector
// constructor could then run on a CPU without AVX2.

#include <cstdint>
#include <cstring>

#include "gemm_kernels.hpp"

#ifndef ADAFLOW_GEMM_VARIANT
#define ADAFLOW_GEMM_VARIANT baseline
#endif

namespace adaflow::nn::ADAFLOW_GEMM_VARIANT {

namespace {

#if defined(__AVX2__)
constexpr std::int64_t kLanes = 8;
constexpr const char* kIsa = "avx2";
#elif defined(__SSE2__)
constexpr std::int64_t kLanes = 4;
constexpr const char* kIsa = "sse2";
#else
constexpr std::int64_t kLanes = 4;
constexpr const char* kIsa = "generic";
#endif

// kLanes floats in one register (GCC/Clang vector extension). Its arithmetic
// is element-wise IEEE single precision, the same operations the scalar
// loops perform, so vectorising across outputs keeps every bit.
typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

// Inline, so that no 32-byte vector crosses a call boundary.
inline Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

/// c[0, kLanes*kVecs) += a[k * a_step] * b[k * ldb + (0, kLanes*kVecs)] for k
/// ascending, skipping zero a. The outputs stay in registers across the whole
/// k loop.
template <int kVecs>
inline void axpy_tile(std::int64_t k_count, const float* a, std::int64_t a_step, const float* b,
                      std::int64_t ldb, float* c) {
  Vec acc[kVecs];
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

/// Runs axpy_tile<kVecs> over every whole tile from column n on, for all rows
/// of C; returns the first column left over.
template <int kVecs>
std::int64_t axpy_tiles(std::int64_t n, std::int64_t m_count, std::int64_t n_count,
                        std::int64_t k_count, const float* a, std::int64_t a_m_step,
                        std::int64_t a_k_step, const float* b, float* c) {
  constexpr std::int64_t kWidth = kVecs * kLanes;
  for (; n + kWidth <= n_count; n += kWidth) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      axpy_tile<kVecs>(k_count, a + m * a_m_step, a_k_step, b + n, n_count, c + m * n_count + n);
    }
  }
  return n;
}

/// C[M,N] += A * B[K,N] with A(m, k) = a[m * a_m_step + k * a_k_step]: the
/// common body of gemm_nn and gemm_tn. Column tiles run outermost so that
/// one tile of B stays in L1 across all rows of C. The main tile holds 8
/// independent accumulator chains; 4/2/1-vector tails and a scalar loop
/// cover the columns left over.
void gemm_axpy(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
               std::int64_t a_m_step, std::int64_t a_k_step, const float* b, float* c) {
  std::int64_t n = axpy_tiles<8>(0, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c);
  n = axpy_tiles<4>(n, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c);
  n = axpy_tiles<2>(n, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c);
  n = axpy_tiles<1>(n, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c);
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

void gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_axpy(m_count, n_count, k_count, a, k_count, 1, b, c);
}

void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_axpy(m_count, n_count, k_count, a, 1, m_count, b, c);
}

/// sums[j * kRows + r] = +0 + sum over k ascending of at[k * ld + r] *
/// b[j * k_count + k], for kCols columns j and kRows = kRowVecs * kLanes rows r.
template <int kRowVecs, int kCols>
inline void dot_tile(std::int64_t k_count, const float* at, std::int64_t ld, const float* b,
                     float* sums) {
  constexpr std::int64_t kRows = kRowVecs * kLanes;
  Vec acc[kCols][kRowVecs] = {};
  for (std::int64_t k = 0; k < k_count; ++k) {
    Vec a_vec[kRowVecs];
    for (int v = 0; v < kRowVecs; ++v) {
      a_vec[v] = load(at + k * ld + v * kLanes);
    }
    for (int j = 0; j < kCols; ++j) {
      const float b_val = b[j * k_count + k];
      for (int v = 0; v < kRowVecs; ++v) {
        acc[j][v] += a_vec[v] * b_val;
      }
    }
  }
  for (int j = 0; j < kCols; ++j) {
    for (int v = 0; v < kRowVecs; ++v) {
      store(sums + j * kRows + v * kLanes, acc[j][v]);
    }
  }
}

/// gemm_nt on packed A^T with tiles of kRowVecs row vectors by 8 / kRowVecs
/// columns: 8 independent chains, then a tile of half the columns and single
/// columns for the rest.
template <int kRowVecs>
void nt_tiles(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* at,
              std::int64_t ld, const float* b, float* c) {
  constexpr int kCols = 8 / kRowVecs;
  constexpr std::int64_t kRows = kRowVecs * kLanes;
  float sums[kCols * kRows];
  for (std::int64_t m0 = 0; m0 < m_count; m0 += kRows) {
    const std::int64_t rows = m_count - m0 < kRows ? m_count - m0 : kRows;
    const auto add_sums = [&](std::int64_t n0, int cols) {
      for (int j = 0; j < cols; ++j) {
        for (std::int64_t r = 0; r < rows; ++r) {
          c[(m0 + r) * n_count + n0 + j] += sums[j * kRows + r];
        }
      }
    };
    std::int64_t n = 0;
    for (; n + kCols <= n_count; n += kCols) {
      dot_tile<kRowVecs, kCols>(k_count, at + m0, ld, b + n * k_count, sums);
      add_sums(n, kCols);
    }
    if (n + kCols / 2 <= n_count) {
      dot_tile<kRowVecs, kCols / 2>(k_count, at + m0, ld, b + n * k_count, sums);
      add_sums(n, kCols / 2);
      n += kCols / 2;
    }
    for (; n < n_count; ++n) {
      dot_tile<kRowVecs, 1>(k_count, at + m0, ld, b + n * k_count, sums);
      add_sums(n, 1);
    }
  }
}

void gemm_nt_packed(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count,
                    const float* at, std::int64_t ld, const float* b, float* c) {
  // Few rows (a narrow conv's weight gradient): one row vector, more columns.
  if (m_count <= kLanes) {
    nt_tiles<1>(m_count, n_count, k_count, at, ld, b, c);
  } else {
    nt_tiles<2>(m_count, n_count, k_count, at, ld, b, c);
  }
}

}  // namespace

extern constinit const GemmKernels kKernels{kIsa, &gemm_nn, &gemm_tn, &gemm_nt_packed,
                                            2 * kLanes};

}  // namespace adaflow::nn::ADAFLOW_GEMM_VARIANT
