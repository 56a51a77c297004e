#include "adaflow/nn/gemm.hpp"

#include <algorithm>
#include <vector>

#include "adaflow/common/parallel.hpp"
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
             const float* b, float* c, GemmOut out) {
  gemm_kernels().nn(m_count, n_count, k_count, a, b, c, out);
}

void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out) {
  gemm_kernels().tn(m_count, n_count, k_count, a, b, c, out);
}

void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out) {
  gemm_nt(gemm_kernels(), m_count, n_count, k_count, a, b, c, out);
}

void gemm_nt(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
             std::int64_t k_count, const float* a, const float* b, float* c, GemmOut out) {
  // A contiguous B: row j starts at j * K, one row of K elements.
  thread_local std::vector<std::int64_t> off;
  off.resize(static_cast<std::size_t>(n_count));
  for (std::int64_t j = 0; j < n_count; ++j) {
    off[static_cast<std::size_t>(j)] = j * k_count;
  }
  NtBatch(kernels, m_count, n_count, 1, a, NtRows{b, off.data(), 1, k_count, k_count, 1}, c, out)
      .run_all();
}

NtBatch::NtBatch(std::int64_t m_count, std::int64_t n_count, std::int64_t samples,
                 const float* a, const NtRows& b, float* c, GemmOut out)
    : NtBatch(gemm_kernels(), m_count, n_count, samples, a, b, c, out) {}

NtBatch::NtBatch(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
                 std::int64_t samples, const float* a, const NtRows& b, float* c, GemmOut out)
    : kernels_(kernels), m_count_(m_count), n_count_(n_count), samples_(samples), b_(b), c_(c),
      out_(out) {
  // Each A_s^T with the rows of C padded to the row tile the kernel reads,
  // so that a tile's independent outputs form whole vectors per k. The
  // buffer is reused per thread; every element, padding included, is
  // written below.
  thread_local std::vector<float> at;
  const std::int64_t k_count = b.k_count();
  const std::int64_t lanes = kernels.lanes;
  ld_ = m_count <= lanes ? lanes : (m_count + 2 * lanes - 1) / (2 * lanes) * (2 * lanes);
  at.resize(static_cast<std::size_t>(samples * k_count * ld_));
  float* const at_data = at.data();
  const std::int64_t ld = ld_;
  const auto pack = [&](std::int64_t s) {
    const float* a_s = a + s * m_count * k_count;
    float* dst = at_data + s * k_count * ld;
    for (std::int64_t k = 0; k < k_count; ++k, dst += ld) {
      for (std::int64_t m = 0; m < m_count; ++m) {
        dst[m] = a_s[m * k_count + k];
      }
      for (std::int64_t m = m_count; m < ld; ++m) {
        dst[m] = 0.0f;
      }
    }
  };
  if (samples == 1) {
    pack(0);  // Linear's forward: no pool needed
  } else {
    parallel_for(samples, pack);
  }
  at_ = at.data();
}

void NtBatch::run(std::int64_t chunk) const {
  const std::int64_t n_begin = chunk * kChunkColumns;
  kernels_.nt(m_count_, n_count_, samples_, at_, ld_, b_, n_begin,
              std::min(n_begin + kChunkColumns, n_count_), c_, out_);
}

void NtBatch::run_all() const {
  for (std::int64_t i = 0; i < chunks(); ++i) {
    run(i);
  }
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
