// Kept only as an include path: perfbench/src/workload.hpp includes it for
// the collective API.  Per-kind accounting lives in src/metrics.
#pragma once

#include "yhccl/coll/coll.hpp"
