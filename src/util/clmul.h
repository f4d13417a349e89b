// Runtime dispatch for the carry-less-multiply integrity kernels.
//
// crc32() (util/crc32.h), Fingerprinter::fingerprint() and gf64_mul()
// (util/gf64_fingerprint.h) each have two implementations with identical
// results: a portable table/bitwise path, and a PCLMULQDQ path compiled
// with `target("pclmul,sse4.1")` attributes (no global -m flags). The CPU
// is probed once per process with __builtin_cpu_supports; there is no
// override knob, because the two paths cannot differ in output.
#pragma once

#if defined(__x86_64__)
#define PRLC_CLMUL_X86 1
#define PRLC_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))
#else
#define PRLC_CLMUL_X86 0
#endif

namespace prlc::util {

/// True when this build has the carry-less kernels and the CPU supports
/// PCLMULQDQ and SSE4.1. Probed once, then cached.
bool clmul_supported();

/// Name of the integrity path every crc32/fingerprint call takes:
/// "clmul" or "portable".
const char* integrity_path();

}  // namespace prlc::util
