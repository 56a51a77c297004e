// The one source of the GEMM kernels and of BatchNorm's channel reductions,
// built once per ISA variant: compiled as itself it is the baseline variant
// (SSE2 on x86-64), and gemm_kernels_avx2.cpp builds it again with -mavx2.
// The variants differ only in the width of Vec (and DVec). Each lane
// performs the same IEEE multiply and add the scalar loop would, in the same
// order, so every variant computes the same bits (the contract in gemm.hpp).
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
/// ascending, skipping zero a; with \p write the sums start from +0 instead
/// of c. The outputs stay in registers across the whole k loop.
template <int kVecs>
inline void axpy_tile(std::int64_t k_count, const float* a, std::int64_t a_step, const float* b,
                      std::int64_t ldb, float* c, bool write) {
  Vec acc[kVecs] = {};
  if (!write) {
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = load(c + v * kLanes);
    }
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
                        std::int64_t a_k_step, const float* b, float* c, bool write) {
  constexpr std::int64_t kWidth = kVecs * kLanes;
  for (; n + kWidth <= n_count; n += kWidth) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      axpy_tile<kVecs>(k_count, a + m * a_m_step, a_k_step, b + n, n_count, c + m * n_count + n,
                       write);
    }
  }
  return n;
}

/// C[M,N] (+)= A * B[K,N] with A(m, k) = a[m * a_m_step + k * a_k_step]: the
/// common body of gemm_nn and gemm_tn. Column tiles run outermost so that
/// one tile of B stays in L1 across all rows of C. The main tile holds 8
/// independent accumulator chains; 4/2/1-vector tails and a scalar loop
/// cover the columns left over.
void gemm_axpy(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
               std::int64_t a_m_step, std::int64_t a_k_step, const float* b, float* c,
               GemmOut out) {
  const bool write = out == GemmOut::kWrite;
  std::int64_t n =
      axpy_tiles<8>(0, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c, write);
  n = axpy_tiles<4>(n, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c, write);
  n = axpy_tiles<2>(n, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c, write);
  n = axpy_tiles<1>(n, m_count, n_count, k_count, a, a_m_step, a_k_step, b, c, write);
  for (; n < n_count; ++n) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      const float* a_row = a + m * a_m_step;
      float acc = write ? 0.0f : c[m * n_count + n];
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
             const float* b, float* c, GemmOut out) {
  gemm_axpy(m_count, n_count, k_count, a, k_count, 1, b, c, out);
}

void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out) {
  gemm_axpy(m_count, n_count, k_count, a, 1, m_count, b, c, out);
}

/// Rows [m0, m0 + kRows) and columns [n0, n0 + kCols) of an NtBatch, with
/// kRows = kRowVecs * kLanes: kCols * kRowVecs independent chains. Each
/// output starts at its C value (+0 with \p write) and adds, in ascending
/// sample order, that sample's dot product summed from +0 over k = (h, w)
/// ascending. The a row of a sample advances by ld per k.
template <int kRowVecs, int kCols>
void nt_tile(std::int64_t m_count, std::int64_t n_count, std::int64_t samples, const float* at,
             std::int64_t ld, const NtRows& b, std::int64_t m0, std::int64_t n0, float* c,
             bool write) {
  constexpr std::int64_t kRows = kRowVecs * kLanes;
  const std::int64_t row_count = m_count - m0 < kRows ? m_count - m0 : kRows;
  const std::int64_t k_count = b.height * b.width;
  // C's tile, transposed so that a column's rows form whole vectors. Rows
  // past M are padding: their lanes are computed and never stored.
  float sums[kCols * kRows];
  for (int j = 0; j < kCols; ++j) {
    for (std::int64_t r = 0; r < kRows; ++r) {
      sums[j * kRows + r] = write || r >= row_count ? 0.0f : c[(m0 + r) * n_count + n0 + j];
    }
  }
  Vec total[kCols][kRowVecs];
  const float* first[kCols];
  for (int j = 0; j < kCols; ++j) {
    for (int v = 0; v < kRowVecs; ++v) {
      total[j][v] = load(sums + j * kRows + v * kLanes);
    }
    first[j] = b.base + b.off[n0 + j];
  }
  for (std::int64_t s = 0; s < samples; ++s) {
    const float* row[kCols];
    for (int j = 0; j < kCols; ++j) {
      row[j] = first[j] + s * b.sample_stride;
    }
    Vec acc[kCols][kRowVecs] = {};
    const float* a_k = at + s * k_count * ld + m0;
    for (std::int64_t h = 0; h < b.height; ++h) {
      for (std::int64_t w = 0; w < b.width; ++w, a_k += ld) {
        const std::int64_t x = w * b.step;
        Vec a_vec[kRowVecs];
        for (int v = 0; v < kRowVecs; ++v) {
          a_vec[v] = load(a_k + v * kLanes);
        }
        for (int j = 0; j < kCols; ++j) {
          const float b_val = row[j][x];
          for (int v = 0; v < kRowVecs; ++v) {
            acc[j][v] += a_vec[v] * b_val;
          }
        }
      }
      for (int j = 0; j < kCols; ++j) {
        row[j] += b.pitch;
      }
    }
    for (int j = 0; j < kCols; ++j) {
      for (int v = 0; v < kRowVecs; ++v) {
        total[j][v] += acc[j][v];
      }
    }
  }
  for (int j = 0; j < kCols; ++j) {
    for (int v = 0; v < kRowVecs; ++v) {
      store(sums + j * kRows + v * kLanes, total[j][v]);
    }
    for (std::int64_t r = 0; r < row_count; ++r) {
      c[(m0 + r) * n_count + n0 + j] = sums[j * kRows + r];
    }
  }
}

/// nt_tile over the last \p width < kCols columns from n0, as one tile:
/// fewer chains, but one pass over the samples instead of one per column.
template <int kRowVecs, int kWidth>
void nt_last_tile(std::int64_t width, std::int64_t m_count, std::int64_t n_count,
                  std::int64_t samples, const float* at, std::int64_t ld, const NtRows& b,
                  std::int64_t m0, std::int64_t n0, float* c, bool write) {
  if constexpr (kWidth > 0) {
    if (width == kWidth) {
      nt_tile<kRowVecs, kWidth>(m_count, n_count, samples, at, ld, b, m0, n0, c, write);
    } else {
      nt_last_tile<kRowVecs, kWidth - 1>(width, m_count, n_count, samples, at, ld, b, m0, n0, c,
                                         write);
    }
  }
}

/// Columns [n_begin, n_end) of an NtBatch in tiles of kRowVecs row vectors
/// by kCols = 8 / kRowVecs columns (8 independent chains), then one
/// narrower tile for the columns left over.
template <int kRowVecs>
void nt_columns(std::int64_t m_count, std::int64_t n_count, std::int64_t samples,
                const float* at, std::int64_t ld, const NtRows& b, std::int64_t n_begin,
                std::int64_t n_end, float* c, bool write) {
  constexpr int kCols = 8 / kRowVecs;
  constexpr std::int64_t kRows = kRowVecs * kLanes;
  for (std::int64_t m0 = 0; m0 < m_count; m0 += kRows) {
    std::int64_t n = n_begin;
    for (; n + kCols <= n_end; n += kCols) {
      nt_tile<kRowVecs, kCols>(m_count, n_count, samples, at, ld, b, m0, n, c, write);
    }
    nt_last_tile<kRowVecs, kCols - 1>(n_end - n, m_count, n_count, samples, at, ld, b, m0, n, c,
                                      write);
  }
}

void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t samples, const float* at,
             std::int64_t ld, const NtRows& b, std::int64_t n_begin, std::int64_t n_end,
             float* c, GemmOut out) {
  const bool write = out == GemmOut::kWrite;
  // Few rows (a narrow conv's weight gradient): one row vector, more columns.
  if (m_count <= kLanes) {
    nt_columns<1>(m_count, n_count, samples, at, ld, b, n_begin, n_end, c, write);
  } else {
    nt_columns<2>(m_count, n_count, samples, at, ld, b, n_begin, n_end, c, write);
  }
}

// ---- BatchNorm's per-channel double chains ---------------------------------
//
// Each lane of a DVec is one channel's chain. The kernels load a few
// consecutive values of each of kDoubleLanes channels, convert them to
// double and transpose the little matrix in registers, so that one DVec then
// holds the channels' values at one (n, i); the lanes add those in (n, i)
// order exactly as the one-channel loop does.

// Half as many doubles as a Vec holds floats: a register of double lanes.
constexpr std::int64_t kDoubleLanes = kLanes / 2;
typedef double DVec __attribute__((vector_size(kDoubleLanes * sizeof(double))));
typedef float HalfVec __attribute__((vector_size(kDoubleLanes * sizeof(float))));

/// p[0, kDoubleLanes) as doubles.
inline DVec load_doubles(const float* p) {
  HalfVec h;
  std::memcpy(&h, p, sizeof h);
  return __builtin_convertvector(h, DVec);
}

/// The values of kDoubleLanes channels at one (n, i): p[l * stride] as doubles.
inline DVec gather(const float* p, std::int64_t stride) {
  DVec v;
  for (int l = 0; l < kDoubleLanes; ++l) {
    v[l] = static_cast<double>(p[l * stride]);
  }
  return v;
}

/// Transposes the square matrix of the rows m[0, kDoubleLanes).
template <typename V>
inline void transpose(V* m) {
  if constexpr (sizeof(V) == 2 * sizeof(double)) {
    const V a = m[0];
    const V b = m[1];
    m[0] = __builtin_shufflevector(a, b, 0, 2);
    m[1] = __builtin_shufflevector(a, b, 1, 3);
  } else {
    static_assert(sizeof(V) == 4 * sizeof(double));
    const V t0 = __builtin_shufflevector(m[0], m[1], 0, 4, 2, 6);
    const V t1 = __builtin_shufflevector(m[0], m[1], 1, 5, 3, 7);
    const V t2 = __builtin_shufflevector(m[2], m[3], 0, 4, 2, 6);
    const V t3 = __builtin_shufflevector(m[2], m[3], 1, 5, 3, 7);
    m[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    m[1] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    m[2] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    m[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  }
}

/// m[l][r] = channel r's value at i + l, as doubles, for the kDoubleLanes
/// channels whose rows start inner floats apart at p.
inline void load_transposed(const float* p, std::int64_t inner, DVec* m) {
  for (int r = 0; r < kDoubleLanes; ++r) {
    m[r] = load_doubles(p + r * inner);
  }
  transpose(m);
}

inline void store_doubles(double* p, DVec v) { std::memcpy(p, &v, sizeof v); }

/// channel_moments for the kVecs * kDoubleLanes channels from c.
template <int kVecs>
void moments_block(std::int64_t outer, std::int64_t channels, std::int64_t inner, std::int64_t c,
                   const float* x, double* sum, double* sq_sum) {
  DVec s[kVecs] = {};
  DVec q[kVecs] = {};
  const std::int64_t whole = inner - inner % kDoubleLanes;
  for (std::int64_t n = 0; n < outer; ++n) {
    const float* plane = x + (n * channels + c) * inner;
    std::int64_t i = 0;
    for (; i < whole; i += kDoubleLanes) {
      for (int v = 0; v < kVecs; ++v) {
        DVec m[kDoubleLanes];
        load_transposed(plane + v * kDoubleLanes * inner + i, inner, m);
        for (int l = 0; l < kDoubleLanes; ++l) {
          s[v] += m[l];
          q[v] += m[l] * m[l];
        }
      }
    }
    for (; i < inner; ++i) {
      for (int v = 0; v < kVecs; ++v) {
        const DVec d = gather(plane + v * kDoubleLanes * inner + i, inner);
        s[v] += d;
        q[v] += d * d;
      }
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    store_doubles(sum + c + v * kDoubleLanes, s[v]);
    store_doubles(sq_sum + c + v * kDoubleLanes, q[v]);
  }
}

void channel_moments(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                     const float* x, double* sum, double* sq_sum) {
  std::int64_t c = 0;
  for (; c + 2 * kDoubleLanes <= channels; c += 2 * kDoubleLanes) {
    moments_block<2>(outer, channels, inner, c, x, sum, sq_sum);
  }
  for (; c + kDoubleLanes <= channels; c += kDoubleLanes) {
    moments_block<1>(outer, channels, inner, c, x, sum, sq_sum);
  }
  for (; c < channels; ++c) {
    double s = 0.0;
    double q = 0.0;
    for (std::int64_t n = 0; n < outer; ++n) {
      const float* in = x + (n * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        s += in[i];
        q += static_cast<double>(in[i]) * in[i];
      }
    }
    sum[c] = s;
    sq_sum[c] = q;
  }
}

/// channel_grads for the kVecs * kDoubleLanes channels from c.
template <int kVecs>
void grads_block(std::int64_t outer, std::int64_t channels, std::int64_t inner, std::int64_t c,
                 const float* dy, const float* x_hat, double* dgamma, double* dbeta) {
  DVec g[kVecs] = {};
  DVec b[kVecs] = {};
  const std::int64_t whole = inner - inner % kDoubleLanes;
  for (std::int64_t n = 0; n < outer; ++n) {
    const std::int64_t plane = (n * channels + c) * inner;
    std::int64_t i = 0;
    for (; i < whole; i += kDoubleLanes) {
      for (int v = 0; v < kVecs; ++v) {
        const std::int64_t at = plane + v * kDoubleLanes * inner + i;
        DVec d[kDoubleLanes];
        DVec xh[kDoubleLanes];
        load_transposed(dy + at, inner, d);
        load_transposed(x_hat + at, inner, xh);
        for (int l = 0; l < kDoubleLanes; ++l) {
          g[v] += d[l] * xh[l];
          b[v] += d[l];
        }
      }
    }
    for (; i < inner; ++i) {
      for (int v = 0; v < kVecs; ++v) {
        const std::int64_t at = plane + v * kDoubleLanes * inner + i;
        const DVec d = gather(dy + at, inner);
        g[v] += d * gather(x_hat + at, inner);
        b[v] += d;
      }
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    store_doubles(dgamma + c + v * kDoubleLanes, g[v]);
    store_doubles(dbeta + c + v * kDoubleLanes, b[v]);
  }
}

void channel_grads(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                   const float* dy, const float* x_hat, double* dgamma, double* dbeta) {
  std::int64_t c = 0;
  for (; c + 2 * kDoubleLanes <= channels; c += 2 * kDoubleLanes) {
    grads_block<2>(outer, channels, inner, c, dy, x_hat, dgamma, dbeta);
  }
  for (; c + kDoubleLanes <= channels; c += kDoubleLanes) {
    grads_block<1>(outer, channels, inner, c, dy, x_hat, dgamma, dbeta);
  }
  for (; c < channels; ++c) {
    double g = 0.0;
    double bsum = 0.0;
    for (std::int64_t n = 0; n < outer; ++n) {
      const float* d = dy + (n * channels + c) * inner;
      const float* xh = x_hat + (n * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        g += static_cast<double>(d[i]) * xh[i];
        bsum += d[i];
      }
    }
    dgamma[c] = g;
    dbeta[c] = bsum;
  }
}

}  // namespace

extern constinit const GemmKernels kKernels{
    kIsa, &gemm_nn, &gemm_tn, &gemm_nt, kLanes, &channel_moments, &channel_grads};

}  // namespace adaflow::nn::ADAFLOW_GEMM_VARIANT
