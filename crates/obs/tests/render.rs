//! Renderer equivalence: [`PhaseEvent::write_json`] / [`SpanEvent::write_json`]
//! against the `format!`-based renderers they replaced, kept here verbatim as
//! the reference. The wire bytes are the measurement, so the hand-rolled
//! integer, hex, 9-decimal and escape paths must agree with `std::fmt` on
//! every input, not only on the ones the simulator produces.

use fabricsim_des::RngStream;

use fabricsim_obs::{Name, PhaseEvent, SpanEvent, SpanKind, TracePhase};

fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn reference_event_json(ev: &PhaseEvent) -> String {
    format!(
        "{{\"t_s\":{:.9},\"tx\":\"{}\",\"phase\":\"{}\",\"station\":\"{}\",\"queue_depth\":{},\"cum_queued_s\":{},\"cum_service_s\":{}}}",
        ev.t_s,
        reference_escape(&ev.tx),
        ev.phase.label(),
        reference_escape(&ev.station),
        ev.queue_depth,
        ev.cum_queued_s,
        ev.cum_service_s
    )
}

fn reference_span_json(sp: &SpanEvent) -> String {
    format!(
        "{{\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"trace\":\"{}\",\"kind\":\"{}\",\"actor\":\"{}\",\"t0_s\":{:.9},\"t1_s\":{:.9},\"hop\":{}}}",
        sp.span_id,
        sp.parent_id,
        reference_escape(&sp.trace),
        sp.kind.label(),
        reference_escape(&sp.actor),
        sp.t0_s,
        sp.t1_s,
        sp.hop
    )
}

/// Times the 9-decimal fast path must take, refuse or survive.
const EDGE_TIMES: [f64; 24] = [
    0.0,
    -0.0,
    1e-9,
    0.999_999_999,
    1.0,
    12.345_678_901,
    // Fractional nanoseconds, and exact ties (2⁻¹⁰ s = 976 562.5 ns).
    0.1 + 0.2,
    1.0 / 3.0,
    0.000_976_562_5,
    0.000_488_281_25,
    2.5e-10,
    5e-10,
    -1.5,
    -1e-9,
    // Around 2²³ s, where an ulp outgrows a nanosecond, and 2⁵³ ns.
    ((1u64 << 23) * 1_000_000_000 - 1) as f64 / 1e9,
    ((1u64 << 23) * 1_000_000_000 + 1) as f64 / 1e9,
    ((1u64 << 53) - 1) as f64 / 1e9,
    (1u64 << 53) as f64 / 1e9,
    ((1u64 << 53) + 2) as f64 / 1e9,
    1e10,
    1e300,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
];

const EDGE_NAMES: [&str; 12] = [
    "",
    "ab12cd34",
    "peer3.vscc",
    "we\"ird\\name\twith\ncontrol\r\u{1}\u{1f}",
    "é中😀",
    "\u{7f}\u{80}\u{9f}",
    "quote\"at 23 bytes......",
    "backslash\\ at 24 bytes..",
    "ééééééééééé3",
    "éééééééééééé",
    "a name far longer than the inline capacity of a Name, with a \"quote\"",
    "\\",
];

fn time(rng: &mut RngStream) -> f64 {
    match rng.next_below(8) {
        0 => EDGE_TIMES[rng.pick_index(EDGE_TIMES.len())],
        // Whole nanoseconds over the fast path's whole range.
        1 => rng.next_below(1 << 53) as f64 / 1e9,
        2 => (rng.next_below(1 << 11) + (1 << 53) - (1 << 10)) as f64 / 1e9,
        // Arbitrary bit patterns: NaNs, infinities, subnormals, huge values.
        3 => f64::from_bits(rng.next_u64()),
        4 => rng.uniform(-10.0, 1000.0),
        // What the simulator emits: nanosecond counts of a run.
        _ => rng.next_below(3_600_000_000_000) as f64 / 1e9,
    }
}

fn name(rng: &mut RngStream) -> Name {
    const ALPHABET: [char; 12] = [
        'a', '7', '.', '>', '"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '中', '😀',
    ];
    match rng.next_below(4) {
        0 => EDGE_NAMES[rng.pick_index(EDGE_NAMES.len())].into(),
        1 => {
            let len = rng.next_below(40);
            let s: String = (0..len)
                .map(|_| ALPHABET[rng.pick_index(ALPHABET.len())])
                .collect();
            s.into()
        }
        _ => format!("{:08x}", rng.next_u64() as u32).into(),
    }
}

fn uint(rng: &mut RngStream) -> u64 {
    match rng.next_below(4) {
        0 => u64::MAX,
        1 => u64::from(u32::MAX),
        2 => rng.next_u64(),
        _ => rng.next_below(1000),
    }
}

fn event(rng: &mut RngStream) -> PhaseEvent {
    PhaseEvent {
        t_s: time(rng),
        tx: name(rng),
        phase: TracePhase::ALL[rng.pick_index(TracePhase::ALL.len())],
        station: name(rng),
        queue_depth: uint(rng),
        cum_queued_s: time(rng),
        cum_service_s: time(rng),
    }
}

fn span(rng: &mut RngStream) -> SpanEvent {
    SpanEvent {
        span_id: uint(rng),
        parent_id: uint(rng),
        trace: name(rng),
        kind: SpanKind::ALL[rng.pick_index(SpanKind::ALL.len())],
        actor: name(rng),
        t0_s: time(rng),
        t1_s: time(rng),
        // The wire holds any u32; `uint` covers MAX and small values.
        hop: uint(rng) as u32,
    }
}

#[test]
fn write_json_is_byte_equal_to_the_format_renderers() {
    let mut rng = RngStream::new(0x0b5e_7a11);
    let mut buf = String::new();
    let (mut fast, mut slow) = (0u32, 0u32);
    for i in 0..12_000 {
        let ev = event(&mut rng);
        let want = reference_event_json(&ev);
        assert_eq!(ev.to_json(), want, "event {i}: {ev:?}");
        // Appending leaves what is already in the buffer alone.
        buf.clear();
        buf.push('#');
        ev.write_json(&mut buf);
        assert_eq!(buf.strip_prefix('#'), Some(want.as_str()));

        let sp = span(&mut rng);
        assert_eq!(sp.to_json(), reference_span_json(&sp), "span {i}: {sp:?}");

        // Every finite record survives its own wire format.
        if [ev.t_s, ev.cum_queued_s, ev.cum_service_s]
            .iter()
            .all(|t| t.is_finite())
        {
            let back = PhaseEvent::from_json(&want).expect("parses");
            // `{:.9}` is lossy for fractional nanoseconds; everything else
            // must come back exactly.
            assert_eq!(
                PhaseEvent {
                    t_s: ev.t_s,
                    ..back.clone()
                },
                ev
            );
            assert_eq!(back.to_json(), want, "re-rendering is a fixed point");
            if back.t_s.to_bits() == ev.t_s.to_bits() {
                fast += 1;
            } else {
                slow += 1;
            }
        }
        if sp.t0_s.is_finite() && sp.t1_s.is_finite() {
            let back = SpanEvent::from_json(&sp.to_json()).expect("parses");
            assert_eq!(
                SpanEvent {
                    t0_s: sp.t0_s,
                    t1_s: sp.t1_s,
                    ..back.clone()
                },
                sp
            );
            assert_eq!(back.to_json(), sp.to_json());
        }
    }
    assert!(
        fast > 3000 && slow > 1000,
        "both time paths exercised: {fast} exact, {slow} rounded"
    );
}

#[test]
fn every_edge_time_and_name_renders_like_the_reference() {
    for len in [Name::INLINE_CAP, Name::INLINE_CAP + 1] {
        let n = EDGE_NAMES.iter().filter(|n| n.len() == len).count();
        assert!(n >= 2, "names of exactly {len} bytes: {n}");
    }
    for t in EDGE_TIMES {
        for n in EDGE_NAMES {
            let ev = PhaseEvent {
                t_s: t,
                tx: n.into(),
                phase: TracePhase::Committed,
                station: n.into(),
                queue_depth: u64::MAX,
                cum_queued_s: t,
                cum_service_s: -t,
            };
            assert_eq!(ev.to_json(), reference_event_json(&ev), "{t:e} {n:?}");
            let sp = SpanEvent {
                span_id: u64::MAX,
                parent_id: 0,
                trace: n.into(),
                kind: SpanKind::GossipHop,
                actor: n.into(),
                t0_s: t,
                t1_s: -t,
                hop: u32::MAX,
            };
            assert_eq!(sp.to_json(), reference_span_json(&sp), "{t:e} {n:?}");
            // Whole-nanosecond times and every name round-trip exactly.
            if t.to_bits() == 1f64.to_bits() {
                assert_eq!(PhaseEvent::from_json(&ev.to_json()), Ok(ev));
                assert_eq!(SpanEvent::from_json(&sp.to_json()), Ok(sp));
            }
        }
    }
}
