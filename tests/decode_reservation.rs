//! A decoded length prefix reserves no more memory than its payload holds.
//!
//! A sequence's length prefix is untrusted. Capping its reservation at the
//! number of elements the remaining bytes could hold still let one prefix
//! ask for `size_of::<T>()` times the input: a 256 MiB payload claiming a
//! huge `Vec<CampaignEvent>` aborted the process on a 19 GB request, under
//! the wire's 1 GiB frame cap. This binary installs an allocator that
//! records the largest single request (one test, so nothing else runs on
//! its thread) and feeds hostile prefixes over a 64 KiB payload to every
//! decoder that reserves by a prefix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use csnake::core::{CampaignEvent, Persist, Reader, Writer};
use csnake::inject::{Occurrence, RunTrace};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the record is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor unwinds.
// `realloc` keeps its default (alloc + copy + dealloc), so a growth is
// recorded at its new size.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Bytes after the prefix: `0xFF` is no event's tag and starts a varint
/// that overflows, so every decoder below fails on its first element.
const FILLER: usize = 64 << 10;

/// `head`, then `n` as a length prefix, then the filler.
fn hostile(head: &[u8], n: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(head);
    n.put(&mut w);
    w.put_bytes(&[0xFF; FILLER]);
    w.into_bytes()
}

/// The largest single allocation `decode` makes, and whether it failed.
fn largest_request(decode: impl FnOnce() -> bool) -> (usize, bool) {
    LARGEST.with(|c| c.set(0));
    let failed = decode();
    (LARGEST.with(Cell::get), failed)
}

#[test]
fn a_length_prefix_reserves_at_most_its_payload() {
    type Decode = fn(&[u8]) -> bool;
    let decoders: [(&str, &[u8], Decode); 4] = [
        ("Vec<CampaignEvent>", &[], |p| {
            Vec::<CampaignEvent>::load(&mut Reader::new(p)).is_err()
        }),
        ("Vec<RunTrace>", &[], |p| {
            Vec::<RunTrace>::load(&mut Reader::new(p)).is_err()
        }),
        // A trace opens with its delta-coded coverage ids.
        ("RunTrace coverage ids", &[], |p| {
            RunTrace::load(&mut Reader::new(p)).is_err()
        }),
        // An occurrence opens with its two empty stack slots, then the
        // packed branch trace.
        ("Occurrence branch trace", &[0, 0], |p| {
            Occurrence::load(&mut Reader::new(p)).is_err()
        }),
    ];
    let mut over = Vec::new();
    for (what, head, decode) in decoders {
        for n in [1_000, 1 << 20, u32::MAX as usize, 1 << 40, usize::MAX] {
            let payload = hostile(head, n);
            let (largest, failed) = largest_request(|| decode(&payload));
            assert!(failed, "{what} with prefix {n} decoded from filler");
            if largest > payload.len() {
                over.push(format!(
                    "{what}, prefix {n}: {largest} bytes for a {}-byte payload",
                    payload.len()
                ));
            }
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
