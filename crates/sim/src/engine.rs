//! The generic discrete-event loop.
//!
//! A simulation is a [`Model`] — a state machine with an event type — run
//! by [`Simulation`]. Handlers schedule future events through a
//! [`Scheduler`]; the engine orders them by time, breaking ties by
//! insertion order so runs are fully deterministic.
//!
//! The pending events live in a slab: the heap orders packed 16-byte
//! keys and the payloads stay put in their slots, so a sift moves one
//! `u128` instead of a whole event. A key is `(time, seq, slot)`: `seq`
//! is a global insertion counter, unique per event, so `(time, seq)`
//! alone decides the order and `slot` never breaks a tie. The heap is
//! 4-ary, so the four children of a node share one cache line and a pop
//! walks half the levels of a binary heap. Slots are recycled through a
//! free list, and handlers push straight into the heap, so a run in
//! steady state allocates nothing per event.

use crate::time::Time;

/// A user-defined simulation model.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle `event` occurring at `now`; schedule follow-ups on `sched`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Bits of a heap key holding the slab slot (the low bits); `seq` sits
/// above them and the event time fills the high 64 bits, so comparing
/// keys as integers orders by `(time, seq)`.
const SLOT_BITS: u32 = 24;
/// Bits of a heap key holding the insertion sequence number.
const SEQ_BITS: u32 = 64 - SLOT_BITS;
/// Children per heap node.
const ARITY: usize = 4;

/// The pending-event queue, handed to event handlers for scheduling
/// future events.
pub struct Scheduler<E> {
    /// 4-ary min-heap of packed `(time, seq, slot)` keys.
    heap: Vec<u128>,
    /// Event payloads, indexed by a key's slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
    now: Time,
    stop: bool,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: Time::ZERO,
            stop: false,
        }
    }

    fn push(&mut self, at: Time, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                assert!(
                    slot < 1 << SLOT_BITS,
                    "more than 2^{SLOT_BITS} pending events"
                );
                self.slots.push(Some(event));
                slot
            }
        };
        assert!(
            self.seq < 1 << SEQ_BITS,
            "more than 2^{SEQ_BITS} events scheduled"
        );
        let key = (u128::from(at.0) << 64) | u128::from(self.seq << SLOT_BITS | u64::from(slot));
        self.seq += 1;
        // Sift up: move larger parents down until the key fits.
        let heap = &mut self.heap;
        let mut i = heap.len();
        heap.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if heap[parent] <= key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = key;
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|&k| Time((k >> 64) as u64))
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        let heap = &mut self.heap;
        let last = heap.pop()?;
        let top = match heap.first() {
            None => last,
            Some(&top) => {
                // Sift the last leaf down from the root: move the
                // smallest child up until the leaf fits.
                let n = heap.len();
                let mut i = 0;
                loop {
                    let first = ARITY * i + 1;
                    if first >= n {
                        break;
                    }
                    let min = if first + ARITY <= n {
                        // A full node: a branch-free tournament, since
                        // which child is smallest is a coin flip the
                        // branch predictor cannot learn.
                        let a = first + usize::from(heap[first + 1] < heap[first]);
                        let b = first + 2 + usize::from(heap[first + 3] < heap[first + 2]);
                        if heap[b] < heap[a] {
                            b
                        } else {
                            a
                        }
                    } else {
                        (first + 1..n).fold(first, |m, c| if heap[c] < heap[m] { c } else { m })
                    };
                    if heap[min] >= last {
                        break;
                    }
                    heap[i] = heap[min];
                    i = min;
                }
                heap[i] = last;
                top
            }
        };
        let slot = (top as u64 & ((1 << SLOT_BITS) - 1)) as u32;
        let event = self.slots[slot as usize]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(slot);
        Some((Time((top >> 64) as u64), event))
    }

    /// Schedule `event` at absolute time `at` (must not be in the past).
    pub fn at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.push(at, event);
    }

    /// Schedule `event` after a delay from now.
    pub fn after(&mut self, delay: Time, event: E) {
        self.push(self.now + delay, event);
    }

    /// Schedule `event` immediately (still after the current handler
    /// returns, and after previously scheduled same-time events).
    pub fn now(&mut self, event: E) {
        self.push(self.now, event);
    }

    /// The current simulated time.
    pub fn time(&self) -> Time {
        self.now
    }

    /// Request that the simulation stop once the current handler returns.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// The event loop driving a [`Model`].
pub struct Simulation<M: Model> {
    model: M,
    queue: Scheduler<M::Event>,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Wrap `model` with an empty event queue at time zero.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: Scheduler::new(),
            events_processed: 0,
        }
    }

    /// Schedule an initial event before running.
    pub fn schedule(&mut self, at: Time, event: M::Event) {
        assert!(at >= self.queue.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Access the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for wiring up probes between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Process a single event. Returns `false` if the queue was empty or a
    /// handler requested a stop.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.queue.now, "event heap yielded a past event");
        self.queue.now = at;
        self.queue.stop = false;
        self.model.handle(at, event, &mut self.queue);
        self.events_processed += 1;
        !self.queue.stop
    }

    /// Run until the queue is empty or a handler stops the simulation.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until simulated time would exceed `deadline` (events at exactly
    /// `deadline` are processed), the queue empties, or a handler stops.
    pub fn run_until(&mut self, deadline: Time) {
        loop {
            match self.queue.peek_time() {
                Some(at) if at <= deadline => {
                    if !self.step() {
                        return;
                    }
                }
                _ => {
                    // Advance the clock to the deadline so throughput
                    // denominators are well-defined even if the system
                    // went idle early.
                    if self.queue.now < deadline {
                        self.queue.now = deadline;
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records (time, id) of every event it sees and can
    /// chain follow-up events.
    struct Recorder {
        seen: Vec<(Time, u32)>,
        chain: u32,
    }

    enum Ev {
        Mark(u32),
        Chain(u32),
        Stop,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Mark(id) => self.seen.push((now, id)),
                Ev::Chain(n) => {
                    self.seen.push((now, n));
                    if n < self.chain {
                        sched.after(Time::from_ns(10), Ev::Chain(n + 1));
                    }
                }
                Ev::Stop => sched.stop(),
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        sim.schedule(Time::from_ns(30), Ev::Mark(3));
        sim.schedule(Time::from_ns(10), Ev::Mark(1));
        sim.schedule(Time::from_ns(20), Ev::Mark(2));
        sim.run();
        assert_eq!(
            sim.model().seen,
            vec![
                (Time::from_ns(10), 1),
                (Time::from_ns(20), 2),
                (Time::from_ns(30), 3),
            ]
        );
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        for id in 0..50 {
            sim.schedule(Time::from_ns(5), Ev::Mark(id));
        }
        sim.run();
        let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 5,
        });
        sim.schedule(Time::ZERO, Ev::Chain(0));
        sim.run();
        assert_eq!(sim.model().seen.len(), 6);
        assert_eq!(sim.now(), Time::from_ns(50));
    }

    #[test]
    fn stop_halts_immediately() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        sim.schedule(Time::from_ns(1), Ev::Stop);
        sim.schedule(Time::from_ns(2), Ev::Mark(9));
        sim.run();
        assert!(sim.model().seen.is_empty());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn run_until_respects_deadline_and_advances_clock() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        sim.schedule(Time::from_ns(10), Ev::Mark(1));
        sim.schedule(Time::from_ns(100), Ev::Mark(2));
        sim.run_until(Time::from_ns(50));
        assert_eq!(sim.model().seen, vec![(Time::from_ns(10), 1)]);
        assert_eq!(sim.now(), Time::from_ns(50));
        // The later event is still queued.
        sim.run();
        assert_eq!(sim.model().seen.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: Time, _: (), sched: &mut Scheduler<()>) {
                sched.at(now.saturating_sub(Time::from_ns(1)), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(Time::from_ns(5), ());
        sim.run();
    }
}
