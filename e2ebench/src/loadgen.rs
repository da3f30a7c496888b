//! Load generation over real TCP connections: a closed loop (each
//! connection waits for its answer before asking again) and an open
//! loop (requests go out on a fixed schedule, whatever the server does).

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use dbpal_serve::net::{ClientError, Response};
use dbpal_util::frame;

use crate::answers::{classify_response, Verdict};

/// Questions per request. A single question costs ~25–300 µs, so
/// single-question requests are dominated by thread-handoff jitter;
/// eight make a request of ~0.5–2 ms.
pub const QUESTIONS_PER_REQUEST: usize = 8;

/// A response that has not arrived after this long is a failure.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, payload: &[u8]) -> Result<(), ClientError> {
    frame::write_frame(stream, payload).map_err(ClientError::Io)
}

fn recv(stream: &mut TcpStream) -> Result<Response, ClientError> {
    match frame::read_frame(stream, frame::DEFAULT_MAX_FRAME_LEN)? {
        None => Err(ClientError::Closed),
        Some(payload) => Response::from_bytes(&payload).map_err(ClientError::BadResponse),
    }
}

fn failures(response: &Result<Response, ClientError>) -> u64 {
    classify_response(response, QUESTIONS_PER_REQUEST)
        .iter()
        .filter(|v| **v == Verdict::Failed)
        .count() as u64
}

/// What closed-loop phases saw.
#[derive(Debug, Default)]
pub struct ClosedStats {
    /// `(seconds since the measured window opened, questions answered)`
    /// per request completed inside the window.
    pub completions: Vec<(f64, u64)>,
    /// Round-trip time of each request sent inside the window, in µs.
    pub latencies_us: Vec<f64>,
    /// Questions sent and failed, lead-in included.
    pub sent: u64,
    pub failed: u64,
}

impl ClosedStats {
    pub fn absorb(&mut self, other: ClosedStats) {
        self.completions.extend(other.completions);
        self.latencies_us.extend(other.latencies_us);
        self.sent += other.sent;
        self.failed += other.failed;
    }
}

/// Run one connection per request pool, each with one request
/// outstanding, for `warmup` (unmeasured) plus `window`. Connection `c`
/// sends `pools[c]` in order (cycling), starting at `next[c]`, which it
/// advances past every request it completes.
pub fn closed_loop(
    addr: SocketAddr,
    pools: &[Vec<Vec<u8>>],
    next: &mut [usize],
    warmup: Duration,
    window: Duration,
) -> ClosedStats {
    let start = Instant::now();
    let open = start + warmup;
    let end = open + window;
    thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .zip(next.iter_mut())
            .map(|(pool, next)| s.spawn(move || drive_closed(addr, pool, next, open, end)))
            .collect();
        let mut out = ClosedStats::default();
        for h in handles {
            out.absorb(h.join().expect("closed-loop connection thread panicked"));
        }
        out
    })
}

fn drive_closed(
    addr: SocketAddr,
    pool: &[Vec<u8>],
    next: &mut usize,
    open: Instant,
    end: Instant,
) -> ClosedStats {
    let mut stats = ClosedStats::default();
    let mut stream = connect(addr).ok();
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let Some(conn) = stream.as_mut() else { break };
        let response = send(conn, &pool[*next % pool.len()]).and_then(|()| recv(conn));
        let t1 = Instant::now();
        *next += 1;
        let failed = failures(&response);
        stats.sent += QUESTIONS_PER_REQUEST as u64;
        stats.failed += failed;
        if t0 >= open {
            stats
                .latencies_us
                .push(t1.duration_since(t0).as_secs_f64() * 1e6);
        }
        if t1 >= open && t1 < end {
            stats.completions.push((
                t1.duration_since(open).as_secs_f64(),
                QUESTIONS_PER_REQUEST as u64 - failed,
            ));
        }
        if response.is_err() {
            // The stream may be desynced or closed: start afresh.
            stream = connect(addr).ok();
        }
    }
    stats
}

/// A fixed arrival schedule: request `i` is due `i · period` after the
/// phase starts, whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub period_ns: u64,
    pub count: usize,
}

impl Schedule {
    pub fn new(rate_per_s: f64, duration: Duration) -> Self {
        Schedule {
            period_ns: (1e9 / rate_per_s) as u64,
            count: (duration.as_secs_f64() * rate_per_s).floor() as usize,
        }
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        i as u64 * self.period_ns
    }
}

/// Time source for the sender, so the pacing rule can be tested
/// without sleeping.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until_ns(&mut self, t: u64);
}

/// Monotonic wall clock; sleeps with `thread::sleep` (pacing by socket
/// read timeouts overshot the schedule by up to ~10 ms).
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&mut self, t: u64) {
        loop {
            let now = self.now_ns();
            if now >= t {
                return;
            }
            thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// Send every request of `schedule` no earlier than it is due. A stall
/// is never absorbed by shifting later requests: after one, the backlog
/// goes out at once. Returns the time each request was actually sent;
/// stops early when `send` reports a broken connection.
pub fn pace(
    schedule: &Schedule,
    clock: &mut impl Clock,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<u64> {
    let mut sent_at = Vec::with_capacity(schedule.count);
    for i in 0..schedule.count {
        let due = schedule.due_ns(i);
        if clock.now_ns() < due {
            clock.sleep_until_ns(due);
        }
        sent_at.push(clock.now_ns());
        if !send(i) {
            break;
        }
    }
    sent_at
}

/// Latency of request `i` charged from when it was due, in µs — so time
/// a stalled sender held a request back counts against it.
pub fn latency_from_due_us(schedule: &Schedule, i: usize, received_ns: u64) -> f64 {
    received_ns.saturating_sub(schedule.due_ns(i)) as f64 / 1e3
}

/// What open-loop phases saw.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Latency of each answered request, from its due time, in µs.
    pub latencies_us: Vec<f64>,
    /// How late the sender sent each request, in µs.
    pub lateness_us: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
}

impl OpenStats {
    fn failed_to_start(asked: u64) -> Self {
        OpenStats {
            sent: asked,
            failed: asked,
            ..OpenStats::default()
        }
    }

    pub fn absorb(&mut self, other: OpenStats) {
        self.latencies_us.extend(other.latencies_us);
        self.lateness_us.extend(other.lateness_us);
        self.sent += other.sent;
        self.failed += other.failed;
    }
}

/// Send `pool` requests (cycling, from `*next` on) at `rate_per_s` over
/// one pipelined connection for `duration`: a sender thread keeps the
/// schedule, a receiver thread reads the answers in order.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[Vec<u8>],
    next: &mut usize,
    rate_per_s: f64,
    duration: Duration,
) -> OpenStats {
    let schedule = Schedule::new(rate_per_s, duration);
    let asked = schedule.count as u64 * QUESTIONS_PER_REQUEST as u64;
    let first = *next;
    *next += schedule.count;
    let Ok(mut writer) = connect(addr) else {
        return OpenStats::failed_to_start(asked);
    };
    let Ok(mut reader) = writer.try_clone() else {
        return OpenStats::failed_to_start(asked);
    };
    let origin = Instant::now();
    let (sent_at, (latencies_us, failed)) = thread::scope(|s| {
        let receiver = s.spawn(move || {
            let clock = WallClock(origin);
            let mut latencies = Vec::with_capacity(schedule.count);
            let mut failed = 0u64;
            for i in 0..schedule.count {
                let response = recv(&mut reader);
                let received = clock.now_ns();
                let f = failures(&response);
                failed += f;
                if response.is_err() {
                    // Nothing more will arrive in order on this stream.
                    failed += (schedule.count - i - 1) as u64 * QUESTIONS_PER_REQUEST as u64;
                    break;
                }
                if f == 0 {
                    latencies.push(latency_from_due_us(&schedule, i, received));
                }
            }
            (latencies, failed)
        });
        let mut clock = WallClock(origin);
        let sent_at = pace(&schedule, &mut clock, |i| {
            send(&mut writer, &pool[(first + i) % pool.len()]).is_ok()
        });
        let received = receiver.join().expect("open-loop receiver thread panicked");
        (sent_at, received)
    });
    OpenStats {
        latencies_us,
        lateness_us: sent_at
            .iter()
            .enumerate()
            .map(|(i, &t)| t.saturating_sub(schedule.due_ns(i)) as f64 / 1e3)
            .collect(),
        sent: asked,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const MS: u64 = 1_000_000;

    /// A clock that moves only when slept or stalled by the test.
    struct FakeClock<'a>(&'a Cell<u64>);

    impl Clock for FakeClock<'_> {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until_ns(&mut self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn schedule_from_rate() {
        let s = Schedule::new(100.0, Duration::from_secs(10));
        assert_eq!(s.count, 1000);
        assert_eq!(s.period_ns, 10 * MS);
        assert_eq!(s.due_ns(3), 30 * MS);
    }

    #[test]
    fn stalled_sender_charges_the_stall_to_queued_requests() {
        // Every 5 ms; sending request 0 stalls the sender for 20 ms.
        let now = Cell::new(0);
        let schedule = Schedule {
            period_ns: 5 * MS,
            count: 7,
        };
        let sent_at = pace(&schedule, &mut FakeClock(&now), |i| {
            if i == 0 {
                now.set(now.get() + 20 * MS);
            }
            true
        });
        // Requests 1-4 were due at 5-20 ms but went out at 20 ms; the
        // schedule was not shifted, so 5 and 6 went out on time.
        assert_eq!(
            sent_at,
            vec![0, 20 * MS, 20 * MS, 20 * MS, 20 * MS, 25 * MS, 30 * MS]
        );
        // The server answers 1 ms after each send. Measured from the due
        // time, request 1 waited 16 ms; measured from its send it would
        // show 1 ms and hide the stall.
        let lat: Vec<f64> = sent_at
            .iter()
            .enumerate()
            .map(|(i, &t)| latency_from_due_us(&schedule, i, t + MS))
            .collect();
        assert_eq!(lat, vec![1e3, 16e3, 11e3, 6e3, 1e3, 1e3, 1e3]);
        // Request 0 itself was answered 1 ms after its send began; the
        // 20 ms stall lands on the four requests queued behind it.
        let charged: f64 = lat.iter().map(|l| l - 1e3).sum();
        assert_eq!(charged, 30e3);
        assert!(lat[1] >= 15e3);
    }

    #[test]
    fn broken_connection_stops_the_sender() {
        let now = Cell::new(0);
        let schedule = Schedule {
            period_ns: 5 * MS,
            count: 7,
        };
        let sent = pace(&schedule, &mut FakeClock(&now), |i| i < 2);
        assert_eq!(sent, vec![0, 5 * MS, 10 * MS]);
    }
}
