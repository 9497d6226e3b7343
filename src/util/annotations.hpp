// Source annotations consumed by the static checker (tools/simcheck),
// which reads them as tokens: they expand to nothing in every compiler.
//
// MNS_HOT marks a function as an *audited allocation boundary* on the
// simulator's hot paths: its own body is allowed to allocate (slab refill,
// amortized vector growth, pooled-frame handoff) because that allocation
// has been reviewed and is amortized or warm-up-only — but simcheck still
// descends into its callees, so the exemption does not leak downward.
// Annotate the narrowest function that owns the allocation, never a whole
// step function.
#pragma once

#define MNS_HOT
