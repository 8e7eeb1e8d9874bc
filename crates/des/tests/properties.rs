//! Seeded properties of the DES kernel, stations and links (`rng::cases`).

use fabricsim_des::rng::cases;
use fabricsim_des::{Kernel, Link, Model, RngStream, SimDuration, SimTime, Station};

/// `1..=max_len` pairs of `(at < at_bound, 1 <= size < size_bound)`, sorted by `at`.
fn arrivals(rng: &mut RngStream, max_len: u64, at_bound: u64, size_bound: u64) -> Vec<(u64, u64)> {
    let len = 1 + rng.next_below(max_len);
    let mut out: Vec<(u64, u64)> = (0..len)
        .map(|_| (rng.next_below(at_bound), 1 + rng.next_below(size_bound - 1)))
        .collect();
    out.sort_by_key(|&(at, _)| at);
    out
}

/// A world that logs each fired `(time, insertion index)` event.
struct Fired(Vec<(u64, usize)>);

impl Model for Fired {
    type Event = (u64, usize);

    fn fire(&mut self, event: (u64, usize), _: &mut Kernel<Self>) {
        self.0.push(event);
    }

    fn label(_: &(u64, usize)) -> &'static str {
        "fired"
    }
}

/// Events always fire in (time, insertion) order, regardless of the order
/// they were scheduled in.
#[test]
fn kernel_fires_in_timestamp_order() {
    cases("kernel_fires_in_timestamp_order", 256, |rng| {
        let times: Vec<u64> = (0..1 + rng.next_below(199))
            .map(|_| rng.next_below(1_000))
            .collect();
        let mut k = Kernel::new();
        for (seq, &t) in times.iter().enumerate() {
            k.schedule(SimTime::from_nanos(t), (t, seq));
        }
        let mut fired = Fired(Vec::new());
        k.run_until(&mut fired, SimTime::MAX);
        let fired = fired.0;
        assert_eq!(fired.len(), times.len());
        for pair in fired.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "insertion tie-break violated");
            }
        }
    });
}

/// FIFO station completions conserve total work; `arrivals` is sorted by time.
fn station_is_fifo_and_conserves_work(servers: usize, arrivals: &[(u64, u64)]) {
    let mut station = Station::new("s", servers);
    let mut completions = Vec::new();
    let mut total_service = SimDuration::ZERO;
    for &(at, service) in arrivals {
        let d = SimDuration::from_nanos(service);
        total_service += d;
        completions.push(station.submit(SimTime::from_nanos(at), d));
    }
    // Conservation: busy time equals offered service.
    assert_eq!(station.busy_time(), total_service);
    // No job finishes before its arrival + service.
    for (&(at, service), &done) in arrivals.iter().zip(&completions) {
        assert!(done >= SimTime::from_nanos(at + service));
    }
    // With a single server the station is a FIFO queue: completions are
    // monotone, and the last completion is work-conserving (>= first
    // arrival + all service). Multi-server stations only guarantee
    // start-order FIFO: a short job may legitimately finish earlier.
    if servers == 1 {
        for w in completions.windows(2) {
            assert!(w[0] <= w[1], "single-server FIFO violated");
        }
        let first = arrivals[0].0;
        let total: u64 = arrivals.iter().map(|&(_, s)| s).sum();
        assert!(
            completions
                .last()
                .is_some_and(|last| last.as_nanos() >= first + total),
            "the last completion must cover the first arrival plus all service"
        );
    }
}

#[test]
fn station_is_fifo_and_conserves_work_on_random_arrivals() {
    cases("station_is_fifo_and_conserves_work", 256, |rng| {
        let servers = 1 + rng.pick_index(5);
        station_is_fifo_and_conserves_work(servers, &arrivals(rng, 99, 10_000, 500));
    });
}

/// The one case the property ever failed on (it once demanded monotone
/// completions of multi-server stations): two servers, simultaneous arrivals,
/// the second job shorter than the first.
#[test]
fn station_two_servers_simultaneous_short_job_overtakes() {
    station_is_fifo_and_conserves_work(2, &[(4416, 405), (4416, 1)]);
}

/// Link transfers serialize on the wire and preserve order.
#[test]
fn link_preserves_order_and_charges_bandwidth() {
    cases("link_preserves_order_and_charges_bandwidth", 256, |rng| {
        let sends = arrivals(rng, 59, 1_000_000, 10_000);
        let propagation = SimDuration::from_micros(100);
        let mut link = Link::new("l", 1_000_000_000, propagation);
        let arrived: Vec<SimTime> = sends
            .iter()
            .map(|&(at, bytes)| link.transfer(SimTime::from_nanos(at), bytes))
            .collect();
        for w in arrived.windows(2) {
            assert!(w[0] <= w[1], "link reordered messages");
        }
        // Each arrival is at least serialization + propagation after send.
        for (&(at, bytes), &arr) in sends.iter().zip(&arrived) {
            let serialization = link.serialization_delay(bytes);
            assert!(arr >= SimTime::from_nanos(at) + serialization + propagation);
        }
        assert_eq!(
            link.bytes_sent(),
            sends.iter().map(|&(_, b)| b).sum::<u64>()
        );
    });
}

/// RNG streams: deterministic per (seed, name), and exp samples are positive.
#[test]
fn rng_streams_deterministic_and_positive() {
    cases("rng_streams_deterministic_and_positive", 256, |rng| {
        let seed = rng.next_u64();
        let name: String = (0..1 + rng.next_below(12))
            .map(|_| char::from(b'a' + rng.next_below(26) as u8))
            .collect();
        let mean = rng.uniform(0.001, 10.0);
        let mut a = RngStream::derive(seed, &name);
        let mut b = RngStream::derive(seed, &name);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..50 {
            let x = a.exp(mean);
            assert!(x >= 0.0 && x.is_finite());
        }
    });
}
