//! The delivery engine never hands a message over early and keeps every
//! link FIFO while it sleeps most of each flight and spins only a short,
//! self-measured window before the due time.
//!
//! Two ranks exchange 2 000 messages over the default 40 µs network, 1 000
//! in each direction. Senders vary the gap between sends so that deliveries
//! land in the spin window, right after a timed sleep, and after a wait a
//! sender cut short. Each
//! handler checks, against the shared trace clock:
//!
//! * `now >= due` — the handler never runs before the modeled due time;
//! * `due >= send + latency` — the due time is at least the modeled delay
//!   after the send;
//! * the tag is the next one in its link's send order.
//!
//! Handlers record violations rather than panic: the engine catches a
//! handler panic and drops the message, which would hide the failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hiper::netsim::{Channel, Cluster, Message, NetConfig};
use hiper::trace::clock;

const PER_LINK: u64 = 1_000;

#[derive(Default)]
struct Link {
    received: AtomicU64,
    violations: Mutex<Vec<String>>,
}

/// Pause after send number `i`: back-to-back, a 5 µs spin (the next send
/// lands while the engine spins for the previous one), or a sleep of about
/// one latency or several.
fn pause(i: u64) {
    match i % 7 {
        0 | 1 => {}
        2 | 3 => {
            let until = Instant::now() + Duration::from_micros(5);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        4 | 5 => std::thread::sleep(Duration::from_micros(40)),
        _ => std::thread::sleep(Duration::from_micros(150)),
    }
}

#[test]
fn deliveries_are_never_early_and_fifo_per_link() {
    let net = NetConfig::default();
    let cluster = Cluster::start(2, net);
    let links: Vec<Arc<Link>> = (0..2).map(|_| Arc::new(Link::default())).collect();
    for (dst, link) in links.iter().enumerate() {
        let link = Arc::clone(link);
        cluster.transport(dst).register_handler(
            Channel::APP,
            Box::new(move |m: Message| {
                let now = clock::now_ns();
                let expect = link.received.load(Ordering::Relaxed);
                let sent_ns = u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                let floor = sent_ns + net.delay(m.src, m.dst, m.wire_bytes()).as_nanos() as u64;
                let mut bad = Vec::new();
                if now < m.due_ns {
                    bad.push(format!("tag {} ran {} ns early", m.tag, m.due_ns - now));
                }
                if m.due_ns < floor {
                    bad.push(format!(
                        "tag {} due {} ns before send + delay",
                        m.tag,
                        floor - m.due_ns
                    ));
                }
                if m.tag != expect {
                    bad.push(format!(
                        "link {}->{}: tag {} where {expect} was next",
                        m.src, m.dst, m.tag
                    ));
                }
                if !bad.is_empty() {
                    link.violations.lock().unwrap().extend(bad);
                }
                link.received.store(expect + 1, Ordering::Relaxed);
            }),
        );
    }

    let senders: Vec<_> = (0..2)
        .map(|src| {
            let t = cluster.transport(src);
            std::thread::spawn(move || {
                for tag in 0..PER_LINK {
                    let payload = clock::now_ns().to_le_bytes().to_vec();
                    t.send(1 - src, Channel::APP, tag, payload.into());
                    pause(tag);
                }
            })
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    while links
        .iter()
        .any(|l| l.received.load(Ordering::Relaxed) < PER_LINK)
    {
        assert!(Instant::now() < deadline, "deliveries stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = cluster.transport(0).net_stats();
    // Joins the delivery thread, the only writer of `links`.
    cluster.stop();

    for (dst, link) in links.iter().enumerate() {
        assert_eq!(
            link.received.load(Ordering::Relaxed),
            PER_LINK,
            "rank {dst}"
        );
        let v = link.violations.lock().unwrap();
        assert!(
            v.is_empty(),
            "rank {dst}: {} violations, first: {:?}",
            v.len(),
            &v[..v.len().min(5)]
        );
    }
    assert_eq!(stats.handler_panics, 0);
    assert_eq!(stats.dropped, 0);
}
