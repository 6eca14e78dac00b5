#include "runtime/backends/common.h"
#include "runtime/backends/registry.h"

namespace pmc::rt {

const char* to_string(BackendKind k) { return descriptor(k).name; }

std::optional<BackendKind> backend_from_string(std::string_view name) {
  const BackendDescriptor* d = find_backend(name);
  if (d == nullptr) return std::nullopt;
  return d->kind;
}

std::unique_ptr<Backend> make_backend(BackendKind kind, ObjectSpace& objs,
                                      const FaultInjection& faults,
                                      const BackendPolicy& policy) {
  return descriptor(kind).make(objs, faults, policy);
}

}  // namespace pmc::rt
