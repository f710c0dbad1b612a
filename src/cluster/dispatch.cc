#include "cluster/dispatch.hh"

namespace nmapsim {

// Defined in cluster/dispatch_policies.cc.
void linkBuiltinDispatchPolicies();

void
ensureBuiltinDispatchPolicies()
{
    linkBuiltinDispatchPolicies();
}

} // namespace nmapsim
