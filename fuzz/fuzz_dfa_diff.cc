// libFuzzer: DFA codegen tier (its batch interpreter, per tuple and per case)
// vs the CSR kernel vs the Theorem 3.3 reference, including typed
// refusals, forced-cap fallbacks and budget-exhaustion parity.
#include "fuzz_common.h"
#include "testing/targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const strdb::testgen::DfaDiffTarget target;
  strdb::testgen::FuzzDifferentialTarget(target, data, size);
  return 0;
}
