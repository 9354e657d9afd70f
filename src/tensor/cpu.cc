#include "tensor/cpu.h"

namespace sgnn {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace sgnn
