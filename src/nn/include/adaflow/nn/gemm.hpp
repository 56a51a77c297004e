#pragma once

/// \file gemm.hpp
/// Small row-major GEMM kernels shared by Conv2d and Linear, and the
/// per-channel reductions of BatchNorm.
///
/// Numeric contract: every output is bit-identical to the naive triple loop.
/// The kernels tile outputs in registers and vectorise across independent
/// outputs, but never reorder a reduction:
/// - each output accumulates its products in ascending k order;
/// - gemm_nn / gemm_tn add into C directly and skip exactly the products
///   whose A element is zero (quantized weights often are), so a skipped
///   product never turns a -0 in C into +0;
/// - gemm_nt sums each dot product from +0 and adds it to C once. Its B
///   operand is a set of row views (NtRows), so Conv2d's weight gradient
///   reads the input image in place instead of an im2col copy, and a batch
///   of such products (NtBatch) adds one dot product per sample, in
///   ascending sample order.
/// - GemmOut::kWrite starts every output from +0 in registers instead of
///   loading C: the bits of zero-filling C and accumulating, without the
///   fill. Every element of C is stored, a fully skipped one as +0.
/// adaflow_nn builds with -ffp-contract=off, so no multiply-add is fused.
///
/// The kernels come from one source built once per ISA variant: the
/// baseline (SSE2 on x86-64, 4 lanes) and, on x86, AVX2 (8 lanes, without
/// FMA). Each process runs the widest variant its CPU supports. A lane
/// performs the same multiply and add as the scalar loop, so the variants
/// differ in speed only, never in bits.
///
/// The reason for the contract is the library cache: it is keyed on the
/// model topology, not on this code, and any drift in the trained weights
/// would serve stale tables silently.

#include <cstdint>

namespace adaflow::nn {

/// Whether a GEMM adds into C (C += A * B) or overwrites it (C = A * B,
/// with the bits of C = +0; C += A * B).
enum class GemmOut { kAccumulate, kWrite };

/// C[M,N] (+)= A[M,K] * B[K,N]
void gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out = GemmOut::kAccumulate);

/// C[M,N] (+)= A[M,K] * B[N,K]^T
void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out = GemmOut::kAccumulate);

/// C[M,N] (+)= A[K,M]^T * B[K,N]
void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out = GemmOut::kAccumulate);

/// The B operand of gemm_nt as N row views of K = height * width elements
/// per sample: element k = h * width + w of row j of sample s is
/// base[s * sample_stride + off[j] + h * pitch + w * step]. A contiguous
/// [N, K] matrix is height 1, width K, off[j] = j * K. Conv2d's weight
/// gradient views the (zero-bordered) input images: row (c, kh, kw) starts
/// at (c * H + kh) * W + kw, pitch = stride * W, step = stride and
/// sample_stride = C * H * W.
struct NtRows {
  const float* base;
  const std::int64_t* off;  ///< N row offsets
  std::int64_t height;
  std::int64_t width;
  std::int64_t pitch;
  std::int64_t step;
  std::int64_t sample_stride = 0;

  std::int64_t k_count() const { return height * width; }
};

struct GemmKernels;

/// A batch of gemm_nt products summed into one C, split by output columns
/// so that it can run in parallel without changing a bit:
///   C[M,N] (+)= sum over samples s = 0, 1, ... of A_s[M,K] * B_s^T,
/// where A_s = a + s * M * K and B_s is sample s of the views b. Each output
/// adds its samples' dot products (each from +0, in ascending k) in
/// ascending s, which is what one gemm_nt per sample into C gives. This is
/// a conv layer's weight gradient in one call, with no per-sample partials.
///
/// The constructor packs every A_s^T, once, into a buffer of the calling
/// thread, one parallel_for task per sample (so a batch of more than one
/// sample must not be built inside parallel_for); a thread holds one live
/// NtBatch at a time. run(i) then forms the columns of chunk i alone, and
/// distinct chunks may run concurrently (the caller spreads them over
/// parallel_for). Every output belongs to exactly one chunk, so the result
/// does not depend on the worker count.
class NtBatch {
 public:
  /// Columns per chunk: a whole number of the kernels' column tiles.
  static constexpr std::int64_t kChunkColumns = 8;

  NtBatch(std::int64_t m_count, std::int64_t n_count, std::int64_t samples, const float* a,
          const NtRows& b, float* c, GemmOut out = GemmOut::kAccumulate);
  /// The same through the given kernel variant (the oracle tests).
  NtBatch(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
          std::int64_t samples, const float* a, const NtRows& b, float* c,
          GemmOut out = GemmOut::kAccumulate);

  std::int64_t chunks() const { return (n_count_ + kChunkColumns - 1) / kChunkColumns; }
  void run(std::int64_t chunk) const;
  /// Every chunk, serially on the calling thread.
  void run_all() const;

 private:
  const GemmKernels& kernels_;
  std::int64_t m_count_;
  std::int64_t n_count_;
  std::int64_t samples_;
  const float* at_;
  std::int64_t ld_;
  NtRows b_;
  float* c_;
  GemmOut out_;
};

/// BatchNorm's per-channel reductions over x[(n * channels + c) * inner + i]
/// (rank 4 is [N, C, H*W], rank 2 is [N, C, 1]). Each channel is one serial
/// double chain from +0 in (n, i) order, exactly the scalar loop
///   sum += x; sq_sum += double(x) * x;
/// the kernels only run several channels' chains side by side in vector
/// lanes.
void channel_moments(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                     const float* x, double* sum, double* sq_sum);

/// BatchNorm's parameter gradients, per channel in (n, i) order from +0:
///   dgamma += double(dy) * x_hat; dbeta += dy;
void channel_grads(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                   const float* dy, const float* x_hat, double* dgamma, double* dbeta);

/// One ISA variant of the kernels.
struct GemmKernels {
  /// "sse2", "avx2", or "generic" off x86.
  const char* isa;
  /// gemm_nn and gemm_tn.
  void (*nn)(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out);
  void (*tn)(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c, GemmOut out);
  /// Columns [n_begin, n_end) of an NtBatch, with every A_s^T packed as
  /// at[(s * K + k) * ld + m]: ld is `lanes` when M <= lanes (the kernel
  /// then reads one vector of rows), else M rounded up to 2 * lanes, and
  /// the rows m >= M hold zeros. n_begin is a multiple of the chunk width.
  void (*nt)(std::int64_t m_count, std::int64_t n_count, std::int64_t samples, const float* at,
             std::int64_t ld, const NtRows& b, std::int64_t n_begin, std::int64_t n_end, float* c,
             GemmOut out);
  /// Floats per vector register.
  std::int64_t lanes;
  /// channel_moments and channel_grads.
  void (*moments)(std::int64_t outer, std::int64_t channels, std::int64_t inner, const float* x,
                  double* sum, double* sq_sum);
  void (*grads)(std::int64_t outer, std::int64_t channels, std::int64_t inner, const float* dy,
                const float* x_hat, double* dgamma, double* dbeta);
};

enum class GemmIsa { kBaseline, kAvx2 };

/// The variant built for \p isa, or nullptr when this build or this CPU
/// lacks it. The baseline is always there.
const GemmKernels* gemm_kernels_for(GemmIsa isa);

/// The variant gemm_nn / gemm_nt / gemm_tn and the channel reductions run:
/// the widest one this CPU supports, chosen once per process.
const GemmKernels& gemm_kernels();

/// gemm_nt on a contiguous B through the given variant.
void gemm_nt(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
             std::int64_t k_count, const float* a, const float* b, float* c,
             GemmOut out = GemmOut::kAccumulate);

}  // namespace adaflow::nn
