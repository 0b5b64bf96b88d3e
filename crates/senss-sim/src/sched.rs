//! The simulation loop's event queue: one binary min-heap of packed
//! `u128` entries.
//!
//! The simulator's hot loop is "pop the earliest event, process it,
//! push a few more". Each queued entry is a single integer:
//!
//! ```text
//! bits 127..64   63..24   23..22   21..0
//!      time      seq      kind     payload (pid or token)
//! ```
//!
//! so the heap orders entries by `(time, seq)` with one wide integer
//! compare, and an entry moves through the heap as 16 bytes. `seq` is
//! unique per entry, so the order is total and the bits below it never
//! decide a comparison. `seq` is limited to 40 bits and the payload to
//! 22; exceeding either is a hard panic, never a silent wrap (a wrapped
//! `seq` would reorder events).
//!
//! Outside the queue an entry is seen as its key `(time << 64) | seq`
//! plus its [`Event`], exactly as pushed: [`EventQueue::pop_if`],
//! [`EventQueue::export`] and therefore snapshots never see the packing.

/// A scheduled simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    CoreStep(usize),
    BusGrant,
    TxnDone(u64),
}

/// Width of the `seq` field of a packed entry.
const SEQ_BITS: u32 = 40;
/// Width of the event field (kind + payload) below `seq`.
const EVENT_BITS: u32 = 24;
/// Width of the pid/token payload inside the event field.
const PAYLOAD_BITS: u32 = 22;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

impl Event {
    #[inline]
    fn pack(self) -> u64 {
        let (kind, payload) = match self {
            Event::CoreStep(pid) => (0, pid as u64),
            Event::BusGrant => (1, 0),
            Event::TxnDone(token) => (2, token),
        };
        assert!(
            payload <= PAYLOAD_MASK,
            "event payload {payload} does not fit the queue's {PAYLOAD_BITS}-bit field"
        );
        (kind << PAYLOAD_BITS) | payload
    }

    #[inline]
    fn unpack(bits: u64) -> Event {
        let payload = bits & PAYLOAD_MASK;
        match bits >> PAYLOAD_BITS {
            0 => Event::CoreStep(payload as usize),
            1 => Event::BusGrant,
            // Kind 3 is never packed.
            _ => Event::TxnDone(payload),
        }
    }
}

/// Splits a packed entry back into its `(time << 64) | seq` key and event.
#[inline]
fn unpack_entry(entry: u128) -> (u128, Event) {
    let low = entry as u64;
    let key = (entry >> 64 << 64) | u128::from(low >> EVENT_BITS);
    (key, Event::unpack(low & ((1 << EVENT_BITS) - 1)))
}

/// Minimum-first event queue keyed by `(time << 64) | seq`.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    /// Packed entries in min-heap order: every entry is at most its
    /// children at `2i + 1` and `2i + 2`.
    heap: Vec<u128>,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Enqueues `ev` under `key = (time << 64) | seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= 2^40` or the event's pid/token is `>= 2^22`.
    #[inline]
    pub fn push(&mut self, key: u128, ev: Event) {
        let seq = key as u64;
        assert!(
            seq >> SEQ_BITS == 0,
            "event seq {seq} does not fit the queue's {SEQ_BITS}-bit field"
        );
        let entry = (key >> 64 << 64) | (u128::from(seq) << EVENT_BITS) | u128::from(ev.pack());
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Pops the minimum-key entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, Event)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.refill_root(last);
                top
            }
            None => last,
        };
        Some(unpack_entry(top))
    }

    /// Pops the minimum-key entry only if its time (`key >> 64`) is at
    /// most `bound`; otherwise leaves the queue untouched.
    #[inline]
    pub fn pop_if(&mut self, bound: u64) -> Option<(u128, Event)> {
        if (*self.heap.first()? >> 64) as u64 > bound {
            return None;
        }
        self.pop()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot export: every queued entry, in arbitrary order (capture
    /// sorts by key so equal states snapshot identically).
    pub fn export(&self) -> Vec<(u128, Event)> {
        self.heap.iter().map(|&entry| unpack_entry(entry)).collect()
    }

    /// Moves the hole at `hole` up until `entry` fits, then fills it.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, entry: u128) {
        let heap = &mut self.heap[..];
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if heap[parent] <= entry {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = entry;
    }

    /// Fills the hole a pop left at the root with `entry`, the former
    /// last entry: the hole walks down the smaller-child path to a leaf
    /// (one branch-free compare per level), then `entry` sifts up from
    /// there. An entry from the bottom usually belongs near the bottom,
    /// so the sift up is short.
    #[inline]
    fn refill_root(&mut self, entry: u128) {
        let heap = &mut self.heap[..];
        let len = heap.len();
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < len {
            child += usize::from(heap[child + 1] < heap[child]);
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child + 1 == len {
            heap[hole] = heap[child];
            hole = child;
        }
        self.sift_up(hole, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_crypto::rng::SplitMix64;

    fn key(time: u64, seq: u64) -> u128 {
        ((time as u128) << 64) | seq as u128
    }

    fn random_event(rng: &mut SplitMix64) -> Event {
        match rng.next_below(3) {
            0 => Event::CoreStep(rng.next_below(64) as usize),
            1 => Event::BusGrant,
            // Tokens up to the payload limit, so the top bits are exercised.
            _ => Event::TxnDone(rng.next_below(PAYLOAD_MASK + 1)),
        }
    }

    /// A simulation-shaped stream (mostly near-future pushes, same-time
    /// bursts, occasional far jumps, refused and granted `pop_if`s) pops
    /// and exports exactly like a sorted-`Vec` model of the queue.
    #[test]
    fn queue_pops_like_sorted_model() {
        let mut rng = SplitMix64::new(0x5C4E);
        for round in 0..16 {
            let mut q = EventQueue::new();
            let mut model: Vec<(u128, Event)> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..3_000 {
                match rng.next_below(5) {
                    0..=2 => {
                        let delta = match rng.next_below(100) {
                            0 if round % 3 == 0 => 200_000 + rng.next_below(1 << 20),
                            1..=10 => 0,
                            _ => rng.next_below(200),
                        };
                        seq += 1;
                        let k = key(now + delta, seq);
                        let ev = random_event(&mut rng);
                        q.push(k, ev);
                        let at = model.partition_point(|&(mk, _)| mk < k);
                        model.insert(at, (k, ev));
                    }
                    3 => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        let got = q.pop();
                        assert_eq!(got, want);
                        if let Some((k, _)) = got {
                            now = (k >> 64) as u64;
                        }
                    }
                    _ => {
                        let bound = now + rng.next_below(300);
                        let due = model
                            .first()
                            .is_some_and(|&(k, _)| (k >> 64) as u64 <= bound);
                        let want = due.then(|| model.remove(0));
                        let got = q.pop_if(bound);
                        assert_eq!(got, want);
                        if let Some((k, _)) = got {
                            now = (k >> 64) as u64;
                        }
                    }
                }
                assert_eq!(q.len(), model.len());
                if rng.next_below(64) == 0 {
                    let mut exported = q.export();
                    exported.sort_unstable_by_key(|&(k, _)| k);
                    assert_eq!(exported, model);
                }
            }
            // Drain: the tails must agree exactly.
            for want in model {
                assert_eq!(q.pop(), Some(want));
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
    }

    /// `pop_if` past the bound refuses without disturbing the queue,
    /// and exports carry every queued entry.
    #[test]
    fn pop_if_refusal_and_export() {
        let mut q = EventQueue::new();
        q.push(key(100, 1), Event::CoreStep(1));
        q.push(key(50, 2), Event::BusGrant);
        q.push(key(100, 3), Event::TxnDone(3));
        assert_eq!(q.pop_if(40), None, "nothing due at 40");
        assert_eq!(q.len(), 3);
        let mut exported = q.export();
        exported.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(
            exported,
            vec![
                (key(50, 2), Event::BusGrant),
                (key(100, 1), Event::CoreStep(1)),
                (key(100, 3), Event::TxnDone(3))
            ]
        );
        assert_eq!(q.pop_if(50), Some((key(50, 2), Event::BusGrant)));
        // Same-time entries pop in seq order.
        assert_eq!(q.pop(), Some((key(100, 1), Event::CoreStep(1))));
        assert_eq!(q.pop(), Some((key(100, 3), Event::TxnDone(3))));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// `export` returns every queued `(key, event)` unchanged, including
    /// the extremes of each packed field.
    #[test]
    fn export_returns_every_entry_unchanged() {
        let mut rng = SplitMix64::new(0xE4907);
        let max_seq = (1 << SEQ_BITS) - 1;
        let mut pushed = vec![
            (key(u64::MAX, max_seq), Event::TxnDone(PAYLOAD_MASK)),
            (key(0, 0), Event::CoreStep(PAYLOAD_MASK as usize)),
            (key(u64::MAX, 0), Event::BusGrant),
        ];
        for _ in 0..500 {
            let k = key(rng.next_u64(), rng.next_below(max_seq + 1));
            pushed.push((k, random_event(&mut rng)));
        }
        let mut q = EventQueue::new();
        for &(k, ev) in &pushed {
            q.push(k, ev);
        }
        let mut exported = q.export();
        exported.sort_unstable_by_key(|&(k, ev)| (k, ev.pack()));
        pushed.sort_unstable_by_key(|&(k, ev)| (k, ev.pack()));
        assert_eq!(exported, pushed);
    }

    #[test]
    #[should_panic(expected = "40-bit field")]
    fn seq_past_40_bits_panics() {
        EventQueue::new().push(key(1, 1 << SEQ_BITS), Event::BusGrant);
    }

    #[test]
    #[should_panic(expected = "22-bit field")]
    fn payload_past_22_bits_panics() {
        EventQueue::new().push(key(1, 1), Event::TxnDone(1 << PAYLOAD_BITS));
    }
}
