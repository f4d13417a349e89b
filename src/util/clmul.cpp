#include "util/clmul.h"

namespace prlc::util {

bool clmul_supported() {
#if PRLC_CLMUL_X86
  static const bool supported = [] {
    __builtin_cpu_init();  // may run before the runtime's own CPU probe
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

const char* integrity_path() { return clmul_supported() ? "clmul" : "portable"; }

}  // namespace prlc::util
