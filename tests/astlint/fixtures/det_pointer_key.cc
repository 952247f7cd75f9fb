// Seeded violations for the det-pointer-key rule: containers keyed or
// ordered by raw pointer value order entries by heap address, which varies
// across ASLR runs. Pointer *values* (mapped-to) are fine. Golden:
// det_pointer_key.expected.

#include "std_mock.h"

namespace tfc {

struct Port {
  int id = 0;
};

class FaultMap {
 private:
  std::map<Port*, int> by_port_;          // VIOLATION det-pointer-key
  std::unordered_set<const Port*> seen_;  // VIOLATION det-pointer-key
  std::map<int, Port*> ports_by_id_;      // clean: int key, pointer value
};

using PortQueue = std::priority_queue<Port*>;  // VIOLATION det-pointer-key

void Local() {
  std::set<Port*> pending;  // VIOLATION det-pointer-key
  (void)pending;
}

}  // namespace tfc
