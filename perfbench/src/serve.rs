//! The open-loop load generator for `orpheus_serve::Server`.
//!
//! Arrivals follow a seeded Poisson schedule at a fixed rate. The calling
//! thread submits each request when it is due; one collector thread waits
//! for the replies in submission order (one worker serves the queue in
//! order). A request's latency runs from its scheduled due time to when
//! the collector sees its reply, so a stall that delays later submissions
//! is charged to them.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use orpheus_serve::{Route, ServeError, Server, StatsSnapshot, Ticket};
use orpheus_tensor::{SmallRng, Tensor};

use crate::check::Tally;

/// One scheduled request: when it is due after the phase starts, and which
/// pool input it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub offset: Duration,
    pub input: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, drawn from `rng`.
pub fn poisson_schedule(rng: &mut SmallRng, rate: f64, seconds: f64, pool: usize) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Uniform in [0, 1) with 53 random bits.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            offset: Duration::from_secs_f64(t),
            input: (rng.next_u64() % pool as u64) as usize,
        });
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    /// Queue length right after the submit.
    pub backlog: usize,
    /// When the collector saw a reply with an output; `None` if it failed.
    pub done: Option<Instant>,
    pub queue_wait: Duration,
    pub reference_route: bool,
}

/// The outcome of one open-loop phase.
pub struct OpenLoop {
    pub records: Vec<Record>,
    /// Server counters over the phase.
    pub stats: StatsSnapshot,
}

impl OpenLoop {
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.done.is_some()).count()
    }

    /// How late the generator submitted each request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| (r.submit_start - r.due).as_secs_f64() * 1e3)
            .collect()
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

type Submitted = (usize, Result<Ticket, ServeError>);

/// Drives `server` through `schedule`, checking every reply against the
/// reference of its input.
pub fn open_loop(
    server: &Server,
    inputs: &[Tensor],
    references: &[Tensor],
    schedule: &[Arrival],
    tally: &mut Tally,
) -> OpenLoop {
    let before = server.stats();
    let (tx, rx) = channel::<Submitted>();
    // Start slightly in the future so the first due time is not already late.
    let start = Instant::now() + Duration::from_millis(1);
    let mut records: Vec<Record> = Vec::with_capacity(schedule.len());
    let replies = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut replies = Vec::new();
            for (idx, submitted) in rx {
                let reply = submitted.and_then(Ticket::wait);
                let done = Instant::now();
                let arrival: &Arrival = &schedule[idx];
                match reply {
                    Ok(reply) => {
                        tally.output(&reply.output, &references[arrival.input]);
                        let reference_route = reply.route != Route::Primary;
                        replies.push((idx, Some(done), reply.queue_wait, reference_route));
                    }
                    Err(e) => {
                        tally.error(&e);
                        replies.push((idx, None, Duration::ZERO, false));
                    }
                }
            }
            (replies, tally)
        });
        for (idx, arrival) in schedule.iter().enumerate() {
            let input = inputs[arrival.input].clone();
            let due = start + arrival.offset;
            sleep_until(due);
            let submit_start = Instant::now();
            let submitted = server.submit(input);
            let submit_end = Instant::now();
            records.push(Record {
                due,
                submit_start,
                submit_end,
                backlog: server.queue_len(),
                done: None,
                queue_wait: Duration::ZERO,
                reference_route: false,
            });
            tx.send((idx, submitted))
                .expect("the collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let (replies, collected) = replies;
    tally.merge(collected);
    for (idx, done, queue_wait, reference_route) in replies {
        let r = &mut records[idx];
        r.done = done;
        r.queue_wait = queue_wait;
        r.reference_route = reference_route;
    }
    let after = server.stats();
    OpenLoop {
        records,
        stats: delta(&after, &before),
    }
}

/// Counter increments between two snapshots (only the ones reported).
fn delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        batches: after.batches - before.batches,
        batched_requests: after.batched_requests - before.batched_requests,
        ..StatsSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_has_the_offered_rate() {
        let a = poisson_schedule(&mut SmallRng::seed_from_u64(3), 1000.0, 10.0, 64);
        let b = poisson_schedule(&mut SmallRng::seed_from_u64(3), 1000.0, 10.0, 64);
        let c = poisson_schedule(&mut SmallRng::seed_from_u64(4), 1000.0, 10.0, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // 10k expected arrivals; a Poisson count is within 5 sigma (500).
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
        assert!(a.iter().all(|x| x.input < 64));
    }
}
