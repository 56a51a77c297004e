// The AVX2 variant of the GEMM kernels: gemm_kernels.cpp again, compiled
// with -mavx2 but not -mfma (see src/nn/CMakeLists.txt). Runs only where
// gemm.cpp has found AVX2 on the CPU.
#ifndef __AVX2__
#error "gemm_kernels_avx2.cpp must be compiled with -mavx2"
#endif
#define ADAFLOW_GEMM_VARIANT avx2
#include "gemm_kernels.cpp"
