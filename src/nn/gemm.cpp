#include "adaflow/nn/gemm.hpp"

#include <algorithm>
#include <vector>

#include "gemm_kernels.hpp"

namespace adaflow::nn {

const GemmKernels* gemm_kernels_for(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kBaseline:
      return &baseline::kKernels;
    case GemmIsa::kAvx2:
#ifdef ADAFLOW_GEMM_AVX2
      __builtin_cpu_init();
      if (__builtin_cpu_supports("avx2")) {
        return &avx2::kKernels;
      }
#endif
      return nullptr;
  }
  return nullptr;
}

const GemmKernels& gemm_kernels() {
  static const GemmKernels* const selected = [] {
    const GemmKernels* avx2 = gemm_kernels_for(GemmIsa::kAvx2);
    return avx2 != nullptr ? avx2 : &baseline::kKernels;
  }();
  return *selected;
}

void gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_kernels().nn(m_count, n_count, k_count, a, b, c);
}

void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_kernels().tn(m_count, n_count, k_count, a, b, c);
}

void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c) {
  gemm_nt(gemm_kernels(), m_count, n_count, k_count, a, b, c);
}

void gemm_nt(std::int64_t m_count, std::int64_t n_count, const float* a, const NtRows& b,
             float* c) {
  gemm_nt(gemm_kernels(), m_count, n_count, a, b, c);
}

void gemm_nt(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
             std::int64_t k_count, const float* a, const float* b, float* c) {
  // A contiguous B: row j starts at j * K, one row of K elements.
  thread_local std::vector<std::int64_t> off;
  off.resize(static_cast<std::size_t>(n_count));
  for (std::int64_t j = 0; j < n_count; ++j) {
    off[static_cast<std::size_t>(j)] = j * k_count;
  }
  gemm_nt(kernels, m_count, n_count, a, NtRows{b, off.data(), 1, k_count, k_count, 1}, c);
}

void gemm_nt(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
             const float* a, const NtRows& b, float* c) {
  // A^T with the rows of C padded to whole tiles, so that a tile's
  // independent outputs form whole vectors per k. The buffer is reused per
  // thread; every element, padding included, is written below.
  thread_local std::vector<float> at;
  const std::int64_t k_count = b.k_count();
  const std::int64_t ld = (m_count + kernels.nt_rows - 1) / kernels.nt_rows * kernels.nt_rows;
  at.resize(static_cast<std::size_t>(k_count * ld));
  float* dst = at.data();
  for (std::int64_t k = 0; k < k_count; ++k, dst += ld) {
    for (std::int64_t m = 0; m < m_count; ++m) {
      dst[m] = a[m * k_count + k];
    }
    std::fill(dst + m_count, dst + ld, 0.0f);
  }
  kernels.nt(m_count, n_count, at.data(), ld, b, c);
}

void channel_moments(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                     const float* x, double* sum, double* sq_sum) {
  gemm_kernels().moments(outer, channels, inner, x, sum, sq_sum);
}

void channel_grads(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                   const float* dy, const float* x_hat, double* dgamma, double* dbeta) {
  gemm_kernels().grads(outer, channels, inner, dy, x_hat, dgamma, dbeta);
}

}  // namespace adaflow::nn
