//! Probes of the wire path for the traced run: a client staged from the
//! public `wire` functions with a span around each stage, a raw echo server
//! that gives the loopback floor, and an open-loop load generator.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use pqo_optimizer::template::QueryInstance;
use pqo_server::wire::{self, Request, Response, WireChoice};
use pqo_workload::regions;

use crate::estimator::{self, Window, WindowedLoop};
use crate::inputs::{mix, TemplateInput};
use crate::spans::Recorder;
use crate::wire::{Decision, WINDOW};

/// A stream of requests on one template that only ever hits: repeats of
/// instances that were optimized when they were first served — each of those
/// is stored in the cache, so asking again is a selectivity hit on itself
/// that changes nothing — and of instances that hit after the last
/// optimization, against the cache as it still is. (A repeat of an instance
/// the cost check served earlier can miss once its nearest stored neighbours
/// have changed.)
pub struct HitStream<'a> {
    pub id: &'a str,
    instances: Vec<QueryInstance>,
}

impl<'a> HitStream<'a> {
    /// Serve `warm` never-seen instances of `t` (made from `seed`) through
    /// `serve`, which says whether the instance was optimized, and keep those
    /// whose repeats are sure to hit.
    pub fn warm(
        t: &'a TemplateInput,
        warm: usize,
        seed: u64,
        mut serve: impl FnMut(&QueryInstance) -> Result<bool, String>,
    ) -> Result<HitStream<'a>, String> {
        let mut instances = Vec::new();
        let mut since_last_optimized = Vec::new();
        for q in regions::generate(&t.template, warm, seed) {
            if serve(&q)? {
                instances.push(q);
                since_last_optimized.clear();
            } else {
                since_last_optimized.push(q);
            }
        }
        instances.append(&mut since_last_optimized);
        Ok(HitStream {
            id: &t.id,
            instances,
        })
    }

    /// Request number `i` of the stream.
    pub fn request(&self, i: u64) -> &QueryInstance {
        &self.instances[(mix(i, 0x51ed) % self.instances.len() as u64) as usize]
    }
}

fn get_plan_body(template: &str, q: &QueryInstance, body: &mut Vec<u8>) {
    wire::encode_request(
        &Request::GetPlan {
            template: template.into(),
            values: q.values.clone(),
        },
        body,
    );
}

/// A connection driven stage by stage through `pqo_server::wire`.
pub struct RawClient {
    stream: TcpStream,
    body: Vec<u8>,
    frame: Vec<u8>,
}

impl RawClient {
    pub fn connect(addr: &str) -> Result<RawClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut client = RawClient {
            stream,
            body: Vec::new(),
            frame: Vec::new(),
        };
        wire::encode_request(
            &Request::Hello {
                version: wire::PROTOCOL_VERSION,
            },
            &mut client.body,
        );
        wire::write_frame(&mut client.stream, &client.body).map_err(|e| e.to_string())?;
        match client.read_response()? {
            Response::HelloOk { .. } => Ok(client),
            other => Err(format!("expected HELLO_OK, got {other:?}")),
        }
    }

    fn read_response(&mut self) -> Result<Response, String> {
        if !wire::read_frame(
            &mut self.stream,
            wire::DEFAULT_MAX_FRAME_BYTES,
            &mut self.frame,
        )
        .map_err(|e| format!("read: {e}"))?
        {
            return Err("server closed the connection".into());
        }
        wire::decode_response(&self.frame).map_err(|e| e.to_string())
    }

    /// One `GET_PLAN` exchange with a span around each client-side stage.
    pub fn get_plan_traced(
        &mut self,
        template: &str,
        q: &QueryInstance,
        rec: &mut Recorder,
        request: u64,
    ) -> Result<(WireChoice, u64), String> {
        let t0 = rec.now();
        get_plan_body(template, q, &mut self.body);
        let t1 = rec.now();
        wire::write_frame(&mut self.stream, &self.body).map_err(|e| format!("write: {e}"))?;
        let t2 = rec.now();
        if !wire::read_frame(
            &mut self.stream,
            wire::DEFAULT_MAX_FRAME_BYTES,
            &mut self.frame,
        )
        .map_err(|e| format!("read: {e}"))?
        {
            return Err("server closed the connection".into());
        }
        let t3 = rec.now();
        let response = wire::decode_response(&self.frame).map_err(|e| e.to_string())?;
        let t4 = rec.now();
        let root = rec.open("client.rtt", t0, request);
        rec.push("client.encode", t0, t1, root, request);
        rec.push("client.write", t1, t2, root, request);
        rec.push("client.read_wait", t2, t3, root, request);
        rec.push("client.decode", t3, t4, root, request);
        rec.close(root, t4);
        match response {
            Response::Plan(choice) => Ok((choice, t4 - t0)),
            other => Err(format!("expected PLAN, got {other:?}")),
        }
    }
}

/// The staged client in a closed loop over a hit-only stream.
pub fn traced_closed_loop(
    addr: &str,
    hits: &HitStream<'_>,
    length: Duration,
    rec: &mut Recorder,
) -> Result<(Vec<Window>, Vec<Decision>), String> {
    let mut client = RawClient::connect(addr)?;
    let start = Instant::now();
    let mut windows = WindowedLoop::new(WINDOW, start);
    let mut decisions = Vec::new();
    let mut i = 0u64;
    while start.elapsed() < length {
        let (choice, rtt_ns) = client.get_plan_traced(hits.id, hits.request(i), rec, i)?;
        windows.record(Instant::now(), Duration::from_nanos(rtt_ns));
        decisions.push(Decision {
            fingerprint: choice.fingerprint,
            optimized: choice.optimized,
        });
        i += 1;
    }
    Ok((windows.finish(), decisions))
}

/// A raw TCP echo peer with the server's write/read pattern and frame
/// sizes: what a round trip costs with no program behind it. Returns the
/// median round trip in µs and the sample count.
pub fn echo_rtt_us(
    request_len: usize,
    response_len: usize,
    length: Duration,
) -> Result<(f64, u64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let response = vec![0u8; response_len];
        let mut frame = Vec::new();
        while wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame)? {
            wire::write_frame(&mut stream, &response)?;
        }
        Ok(())
    });
    let mut rtts = Vec::new();
    let result = (|| -> std::io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let request = vec![0u8; request_len];
        let mut frame = Vec::new();
        let start = Instant::now();
        while start.elapsed() < length {
            let t0 = Instant::now();
            wire::write_frame(&mut stream, &request)?;
            wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame)?;
            rtts.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        Ok(())
        // Dropping the stream ends the echo thread's read loop.
    })();
    let echoed = echo.join().expect("echo thread panicked");
    result.map_err(|e| format!("echo client: {e}"))?;
    echoed.map_err(|e| format!("echo server: {e}"))?;
    if rtts.is_empty() {
        return Err("echo made no round trip".into());
    }
    let n = rtts.len() as u64;
    Ok((estimator::percentile_us(&mut rtts, 50.0), n))
}

/// What one step of the open-loop ladder measured.
pub struct OpenLoopStep {
    pub rate: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
    /// How late the generator itself sent, against the schedule (ns).
    pub send_late_ns: Vec<u32>,
}

/// Open loop at a fixed arrival rate on one pipelined connection: request
/// `k` is due at `start + k/rate` whether or not earlier ones were answered,
/// and its latency runs from when it was **due**, so a stall is charged to
/// every request it delays (no coordinated omission).
pub fn open_loop(
    addr: &str,
    hits: &HitStream<'_>,
    rate: u64,
    length: Duration,
) -> Result<OpenLoopStep, String> {
    let n = (rate as f64 * length.as_secs_f64()) as u64;
    let client = RawClient::connect(addr)?;
    let mut tx = client.stream.try_clone().map_err(|e| e.to_string())?;
    let mut rx = client.stream;
    let start = Instant::now() + Duration::from_millis(10);
    let due = |k: u64| start + Duration::from_nanos(k * 1_000_000_000 / rate);

    let (late, latencies) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<u32>, String> {
            let mut late = Vec::with_capacity(n as usize);
            let mut body = Vec::new();
            for k in 0..n {
                get_plan_body(hits.id, hits.request(k), &mut body);
                let due = due(k);
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    // Sleep through long gaps; yield through the last stretch,
                    // so the receiver, on the same CPUs, is never kept from
                    // reading an answer by this loop.
                    if due - now > Duration::from_micros(200) {
                        std::thread::sleep(due - now - Duration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
                late.push((Instant::now() - due).as_nanos().min(u32::MAX as u128) as u32);
                wire::write_frame(&mut tx, &body).map_err(|e| format!("open-loop write: {e}"))?;
            }
            tx.flush().map_err(|e| e.to_string())?;
            Ok(late)
        });
        let receiver = scope.spawn(move || -> Result<Vec<u32>, String> {
            let mut latencies = Vec::with_capacity(n as usize);
            let mut frame = Vec::new();
            for k in 0..n {
                let got = wire::read_frame(&mut rx, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame)
                    .map_err(|e| format!("open-loop read: {e}"))?;
                if !got {
                    return Err("server closed the open-loop connection".into());
                }
                let since_due = Instant::now().saturating_duration_since(due(k));
                latencies.push(since_due.as_nanos().min(u32::MAX as u128) as u32);
            }
            Ok(latencies)
        });
        (
            sender.join().expect("open-loop sender panicked"),
            receiver.join().expect("open-loop receiver panicked"),
        )
    });
    let (send_late_ns, mut latencies) = (late?, latencies?);
    Ok(OpenLoopStep {
        rate,
        p50_us: estimator::percentile_us(&mut latencies, 50.0),
        p99_us: estimator::percentile_us(&mut latencies, 99.0),
        samples: latencies.len() as u64,
        send_late_ns,
    })
}

/// Lengths of a `GET_PLAN` request body for `q` and of a `PLAN` response
/// body, as they cross the wire.
pub fn frame_lengths(template: &str, q: &QueryInstance) -> (usize, usize) {
    let mut request = Vec::new();
    get_plan_body(template, q, &mut request);
    let mut response = Vec::new();
    wire::encode_response(
        &Response::Plan(WireChoice {
            fingerprint: 0,
            optimized: false,
            generation: 0,
        }),
        &mut response,
    );
    (request.len(), response.len())
}

/// Mean nanoseconds of each codec step over `instances` of `template`:
/// (encode request, decode request, encode response, decode response,
/// reassemble one request frame from the byte stream).
pub fn codec_ns(template: &str, instances: &[QueryInstance]) -> [f64; 5] {
    use pqo_server::conn::FrameAssembler;
    let n = instances.len() as f64;
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(instances.len());
    let mut body = Vec::new();
    let t0 = Instant::now();
    for q in instances {
        get_plan_body(template, q, &mut body);
        std::hint::black_box(&body);
    }
    let encode_request = t0.elapsed().as_nanos() as f64 / n;
    for q in instances {
        get_plan_body(template, q, &mut body);
        bodies.push(body.clone());
    }
    let t0 = Instant::now();
    for b in &bodies {
        std::hint::black_box(wire::decode_request(b).expect("own encoding decodes"));
    }
    let decode_request = t0.elapsed().as_nanos() as f64 / n;

    let responses: Vec<Response> = (0..instances.len() as u64)
        .map(|i| {
            Response::Plan(WireChoice {
                fingerprint: mix(i, 1),
                optimized: i % 100 == 0,
                generation: i,
            })
        })
        .collect();
    let t0 = Instant::now();
    for r in &responses {
        wire::encode_response(r, &mut body);
        std::hint::black_box(&body);
    }
    let encode_response = t0.elapsed().as_nanos() as f64 / n;
    let encoded: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            wire::encode_response(r, &mut body);
            body.clone()
        })
        .collect();
    let t0 = Instant::now();
    for b in &encoded {
        std::hint::black_box(wire::decode_response(b).expect("own encoding decodes"));
    }
    let decode_response = t0.elapsed().as_nanos() as f64 / n;

    let framed: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            let mut f = Vec::with_capacity(4 + b.len());
            wire::write_frame(&mut f, b).expect("writing to a Vec cannot fail");
            f
        })
        .collect();
    let mut assembler = FrameAssembler::new(wire::DEFAULT_MAX_FRAME_BYTES);
    let mut out = Vec::with_capacity(1);
    let t0 = Instant::now();
    for f in &framed {
        out.clear();
        assembler.feed(f, &mut out).expect("frames are small");
        std::hint::black_box(&out);
    }
    let assemble = t0.elapsed().as_nanos() as f64 / n;
    [
        encode_request,
        decode_request,
        encode_response,
        decode_response,
        assemble,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_reports_a_round_trip() {
        let (p50, n) = echo_rtt_us(40, 22, Duration::from_millis(50)).unwrap();
        assert!(p50 > 0.0 && n > 0);
    }
}
