// Callback types of the memory-consistency-system (MCS) interface.
//
// An application process issues read/write *calls* to its MCS-process and
// blocks until the *response* arrives (Section 2). A read is answered at
// once: McsProcess::read returns the replica's value together with the
// WriteId of the write that stored it, so a read names the write it
// returned. A write's response may come later, so in this event-driven
// implementation it is a callback. The blocking discipline is enforced by
// AppProcess, which serializes one outstanding operation per process; its
// read continuation (ReadCallback) receives the value.
#pragma once

#include "common/ids.h"
#include "common/small_fn.h"
#include "common/value.h"

namespace cim::mcs {

// SmallFn, not std::function: one of these is created per operation, so the
// response path must not allocate (see docs/ARCHITECTURE.md, "the
// allocation-free hot path"). Move-only is fine — a response fires once.
using ReadCallback = SmallFn<void(Value)>;
using WriteCallback = SmallFn<void()>;

// The upcall/apply-pipeline continuation ("done"): same reasoning.
using DoneFn = SmallFn<void()>;

}  // namespace cim::mcs
