//! Fixture: determinism/global-alloc-counter — beside a global allocator,
//! one process-global atomic counter (fires) and one thread-local atomic
//! counter (does not).

use std::sync::atomic::AtomicU64;

static SHARED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static PER_THREAD: AtomicU64 = const { AtomicU64::new(0) };
}

#[global_allocator]
static GLOBAL: std::alloc::System = std::alloc::System;
