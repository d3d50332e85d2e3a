//! The Veil enclave software development kit (§7).
//!
//! The paper ships a musl-libc-based SDK that (a) talks to the kernel
//! module to create/remove enclaves, (b) wraps enclave entry/exit, and
//! (c) redirects system calls by deep-copying arguments out of enclave
//! memory using Syzkaller-derived grammar. This crate is that SDK:
//!
//! * [`binary`] — self-contained enclave binaries (text/data/heap/stack).
//! * [`install`] — the kernel-module flow: lay out the region, allocate
//!   the user-mapped GHCB, call VeilS-ENC to finalize.
//! * [`heap`] — the in-enclave dlmalloc-style allocator.
//! * [`spec`] — the syscall *call specifications* (the grammar table):
//!   which calls the sanitizer supports, and the argument shapes its
//!   per-call redirect helpers copy.
//! * [`runtime`] — [`runtime::EnclaveSys`]: the redirection engine. Every
//!   syscall stages arguments into the shared application buffer (real
//!   guest memory, through the enclave's protected page tables), exits to
//!   `Dom_UNT`, lets the untrusted side execute the call, re-enters, and
//!   copies results back with IAGO checks on returned pointers.
//! * [`ltp`] — an LTP-style conformance corpus for the SDK (§7's
//!   syscall-robustness evaluation).
//! * [`batch`] — the §10 future-work optimization, implemented: batched
//!   (exitless-style) handling of fire-and-forget syscalls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod binary;
pub mod heap;
pub mod install;
pub mod ltp;
pub mod runtime;
pub mod spec;

pub use batch::BatchedSys;
pub use binary::EnclaveBinary;
pub use heap::HeapAllocator;
pub use install::{install_enclave, remove_enclave, EnclaveHandle};
pub use runtime::{EnclaveRuntime, EnclaveSys};
