#ifndef TASTI_NN_CLONES_H_
#define TASTI_NN_CLONES_H_

/// \file clones.h
/// Load-time ISA dispatch for the hot kernels (private to nn/).
///
/// The hot kernels are compiled twice, once for the build's baseline ISA
/// (SSE2 on x86-64) and once for AVX2, and the dynamic loader picks one
/// version per process through an ifunc resolver that runs before main and
/// tests `__builtin_cpu_supports("avx2")` (nn::KernelIsa() runs the same
/// test):
///  - TASTI_KERNEL_CLONES on a definition builds both versions from the
///    one body (GCC/Clang `target_clones`). DotBatch and SurvivorMask use
///    it: their plain float loops vectorize to whatever width the clone
///    has.
///  - TASTI_KERNEL_DEFAULT / TASTI_KERNEL_AVX2 mark two definitions of one
///    function (`target` multiversioning), for a body that must name its
///    vector type or instructions: the training-GEMM tile (matrix.cc) and
///    the record-tile distance kernel SquaredDistanceTile (kernels.cc) are
///    templates over that type, and each version instantiates one with its
///    own width; the crack's code-bound tile (int8_codes.cc) and its pair
///    distances (PairDistances, kernels.cc) use AVX2 intrinsics in the
///    AVX2 version and plain loops in the default one.
///
/// Every version gives bit-identical results. The ISA list names only
/// AVX2, which widens the vectors but still rounds each lane's multiply
/// and then its add, in the order the source writes them. `fma` (and
/// every `avx512*`, which implies it) would let GCC contract
/// mul-then-add into one fused op with a single rounding, which moves the
/// index bytes and the dot-trick prefilter's rounding slack.
/// tools/check_targets.py rule 12 rejects any other name.
///
/// Off x86-64 ELF, with a compiler that lacks the attribute, or under
/// ThreadSanitizer, only the default version is built: TASTI_KERNEL_CLONES
/// and TASTI_KERNEL_DEFAULT expand to nothing and no TASTI_KERNEL_AVX2
/// definition is compiled. TSan instruments the ifunc resolver, which runs
/// before the TSan runtime starts, and the process dies at load (GCC 12).

#if defined(__SANITIZE_THREAD__)
#define TASTI_KERNEL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TASTI_KERNEL_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    defined(__has_attribute) && !defined(TASTI_KERNEL_TSAN)
#if __has_attribute(target_clones)
#define TASTI_KERNEL_CLONES_ENABLED 1
#endif
#endif

namespace tasti::nn {

/// Four and eight floats in one vector value, through the GCC/Clang vector
/// extension, for the kernels written over a vector type: Float4 (xmm or
/// NEON registers) in the default version, Float8 (one ymm register) in the
/// AVX2 one. A Float8 kernel in the SSE build would not do: GCC 12 keeps
/// vectors wider than the target's registers in memory, and the GEMM tile
/// ran 1.7x slower that way. Lane arithmetic is the scalar mul-then-add, so
/// results do not change with the vector width.
using Float4 = float __attribute__((vector_size(16)));
using Float8 = float __attribute__((vector_size(32)));

}  // namespace tasti::nn

#if defined(TASTI_KERNEL_CLONES_ENABLED)
#define TASTI_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#define TASTI_KERNEL_DEFAULT __attribute__((target("default")))
#define TASTI_KERNEL_AVX2 __attribute__((target("avx2")))
#else
#define TASTI_KERNEL_CLONES
#define TASTI_KERNEL_DEFAULT
#endif

#endif  // TASTI_NN_CLONES_H_
