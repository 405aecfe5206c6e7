#include "nemsim/spice/kernels.h"

#include "nemsim/spice/engine.h"

namespace nemsim::spice {

UnknownId KernelLayout::of(NodeId node) const {
  return system_.unknown_of(node);
}

// Default: no kernel support — the engine stamps the device through
// Device::stamp after the lanes.  In-tree devices override in their own
// translation units.
void Device::kernel_descriptor(const KernelLayout& layout,
                               KernelDescriptor& out) const {
  (void)layout;
  (void)out;
}

}  // namespace nemsim::spice
