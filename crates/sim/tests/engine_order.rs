//! The engine pops events in exactly `(time, insertion order)` sequence.
//!
//! Random schedules — initial events with many same-time ties, handlers
//! that chain follow-ups through `Scheduler::at`, `after` and `now`, and
//! `run_until` stopping exactly at an event's time — are run through
//! [`Simulation`] and through a reference model: a plain
//! `BinaryHeap<Reverse<(Time, seq)>>` that numbers every scheduled event
//! in the order it was scheduled. The two pop sequences must match event
//! for event.

use proptest::prelude::*;
use sprayer_sim::{Model, Scheduler, Simulation, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a handler schedules one follow-up.
#[derive(Debug, Clone, Copy)]
enum How {
    /// `Scheduler::at(now + delay)`.
    At(u64),
    /// `Scheduler::after(delay)`.
    After(u64),
    /// `Scheduler::now()`.
    Now,
}

fn how() -> impl Strategy<Value = How> {
    prop_oneof![
        (0u64..4).prop_map(How::At),
        (0u64..4).prop_map(How::After),
        Just(How::Now),
    ]
}

/// Event `id` schedules `plans[id % plans.len()]`, until `cap` events
/// exist in total.
struct Script {
    plans: Vec<Vec<How>>,
    cap: u64,
}

impl Script {
    fn children(&self, id: u64) -> &[How] {
        &self.plans[(id % self.plans.len() as u64) as usize]
    }
}

struct Recorder {
    script: Script,
    next_id: u64,
    seen: Vec<(Time, u64)>,
}

impl Model for Recorder {
    type Event = u64;
    fn handle(&mut self, now: Time, id: u64, sched: &mut Scheduler<u64>) {
        assert_eq!(sched.time(), now);
        self.seen.push((now, id));
        for i in 0..self.script.children(id).len() {
            if self.next_id >= self.script.cap {
                return;
            }
            let child = self.next_id;
            self.next_id += 1;
            match self.script.children(id)[i] {
                How::At(d) => sched.at(now + Time::from_ns(d), child),
                How::After(d) => sched.after(Time::from_ns(d), child),
                How::Now => sched.now(child),
            }
        }
    }
}

/// The reference: ids are scheduled in the same order as the model
/// schedules them, so an id doubles as its insertion sequence number.
struct Reference {
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    next_id: u64,
    seen: Vec<(Time, u64)>,
    now: Time,
}

impl Reference {
    fn pop(&mut self, script: &Script) {
        let Reverse((now, id)) = self.heap.pop().expect("non-empty");
        self.now = now;
        self.seen.push((now, id));
        for how in script.children(id) {
            if self.next_id >= script.cap {
                return;
            }
            let at = match *how {
                How::At(d) | How::After(d) => now + Time::from_ns(d),
                How::Now => now,
            };
            self.heap.push(Reverse((at, self.next_id)));
            self.next_id += 1;
        }
    }

    fn run_until(&mut self, script: &Script, deadline: Time) {
        while self
            .heap
            .peek()
            .is_some_and(|Reverse((t, _))| *t <= deadline)
        {
            self.pop(script);
        }
        self.now = self.now.max(deadline);
    }

    fn run(&mut self, script: &Script) {
        while !self.heap.is_empty() {
            self.pop(script);
        }
    }
}

fn setup(initial: &[u64], plans: Vec<Vec<How>>, cap: u64) -> (Simulation<Recorder>, Reference) {
    let script = Script { plans, cap };
    let mut sim = Simulation::new(Recorder {
        script,
        next_id: initial.len() as u64,
        seen: Vec::new(),
    });
    let mut reference = Reference {
        heap: BinaryHeap::new(),
        next_id: initial.len() as u64,
        seen: Vec::new(),
        now: Time::ZERO,
    };
    for (id, &t) in initial.iter().enumerate() {
        sim.schedule(Time::from_ns(t), id as u64);
        reference.heap.push(Reverse((Time::from_ns(t), id as u64)));
    }
    (sim, reference)
}

proptest! {
    /// Whole runs pop in reference order, ties included.
    #[test]
    fn pops_follow_time_then_insertion_order(
        initial in proptest::collection::vec(0u64..6, 1..40),
        plans in proptest::collection::vec(proptest::collection::vec(how(), 0..4), 1..8),
        cap in 1u64..600,
    ) {
        let (mut sim, mut reference) = setup(&initial, plans, cap);
        sim.run();
        let script = &sim.model().script;
        reference.run(script);
        prop_assert_eq!(&sim.model().seen, &reference.seen);
        prop_assert_eq!(sim.events_processed(), reference.seen.len() as u64);
        prop_assert_eq!(sim.now(), reference.now);
    }

    /// `run_until` at exactly an event's time processes every event at
    /// that time (including ones scheduled there by handlers) and none
    /// after it; resuming continues the same sequence.
    #[test]
    fn run_until_stops_at_the_deadline_boundary(
        initial in proptest::collection::vec(0u64..6, 1..40),
        plans in proptest::collection::vec(proptest::collection::vec(how(), 0..4), 1..8),
        cap in 1u64..600,
        pick in any::<u64>(),
    ) {
        let deadline = Time::from_ns(initial[(pick % initial.len() as u64) as usize]);
        let (mut sim, mut reference) = setup(&initial, plans, cap);
        sim.run_until(deadline);
        let script = &sim.model().script;
        reference.run_until(script, deadline);
        prop_assert_eq!(&sim.model().seen, &reference.seen);
        prop_assert!(sim.model().seen.iter().all(|&(t, _)| t <= deadline));
        prop_assert_eq!(sim.now(), reference.now);
        prop_assert_eq!(sim.now(), deadline);

        sim.run();
        let script = &sim.model().script;
        reference.run(script);
        prop_assert_eq!(&sim.model().seen, &reference.seen);
    }
}
