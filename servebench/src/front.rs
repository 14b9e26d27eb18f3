//! `front`: open-loop Poisson traffic over loopback TCP to a `sesr-netd`
//! child process on its three interpolation routes.

use crate::layers::{self, preprocess};
use crate::measure::{
    cpu_between, median, mix, ms, peak_rss_mib, thread_cpu_ns, Frames, Metrics, SpanLog,
    TelemetryDelta, Window,
};
use crate::{Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::wire::{self, Frame, FrameDecode, ResponseBody, WireRequest};
use sesr_net::{NetClient, RequestOptions};
use sesr_serve::{content_hash, DefenseRequest, GatewayBuilder, RouteConfig, RouteKey};
use sesr_telemetry::TelemetrySnapshot;
use sesr_tensor::Tensor;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load over both connections, requests per second.
const RATE: f64 = 1000.0;
const CONNECTIONS: u64 = 2;
/// Distinct images; with zipf(1.1) popularity about a quarter of requests
/// miss the server's 256-entry output cache.
const POOL: usize = 512;
const ZIPF_S: f64 = 1.1;
const SIDE: usize = 8;
const SETUPS: usize = 11;
const WARMUP: Duration = Duration::from_secs(2);
const DRAIN: Duration = Duration::from_secs(5);
/// Longest idle sleep of a polling connection.
const POLL: Duration = Duration::from_micros(50);
/// Requests replayed through an in-process gateway to time `submit`.
const REPLAY: usize = 3000;

/// The routes `sesr-netd` serves, in its declaration order.
fn routes() -> [RouteKey; 3] {
    [
        RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none()),
        RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none()),
        RouteKey::paper(SrModelKind::NearestNeighbor, 2),
    ]
}

/// Bit-exact expected output of an interpolation route.
fn expected(route: &RouteKey, image: &Tensor) -> Tensor {
    route
        .model
        .build_interpolation(route.scale)
        .expect("front routes interpolate")
        .upscale(&preprocess(route.preprocess, image))
        .expect("interpolation accepts RGB")
}

/// A running `sesr-netd`, killed and reaped on drop.
struct Netd {
    child: Child,
    /// Held open: the server prints to it until it exits.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Netd {
    fn spawn(path: &Path, runtime_secs: u64) -> Netd {
        // lint: allow(process-spawn): the benchmark starts the sesr-netd it measures
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0", "--per-client", "0:0"])
            .args(["--max-runtime-secs", &runtime_secs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", path.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).expect("read sesr-netd stdout") == 0 {
                panic!("sesr-netd exited before listening");
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.parse().expect("sesr-netd prints its address");
            }
        };
        Netd {
            child,
            _stdout: stdout,
            addr,
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The request mix: a zipf-popular image pool on zipf-popular routes, with
/// every reply's expected bytes computed up front.
struct Traffic {
    pool: Vec<Tensor>,
    expected: Vec<[Tensor; 3]>,
    content: Vec<f64>,
    route: Vec<f64>,
    labels: [String; 3],
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let mut frames = Frames::new(seed, 1, SIDE);
        let pool: Vec<Tensor> = (0..POOL).map(|_| frames.next_frame()).collect();
        let expected = pool
            .iter()
            .map(|image| routes().map(|route| expected(&route, image)))
            .collect();
        Traffic {
            pool,
            expected,
            content: zipf_cdf(POOL, ZIPF_S),
            route: zipf_cdf(3, ZIPF_S),
            labels: routes().map(|route| route.label()),
        }
    }

    /// The next `(image, route)` of a request stream.
    fn draw(&self, rng: &mut StdRng) -> (usize, usize) {
        (pick(&self.content, rng.gen()), pick(&self.route, rng.gen()))
    }
}

/// Exponential inter-arrival gap at `rate` per second.
fn gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    Duration::from_secs_f64(-u.ln() / rate)
}

/// One load connection. The socket is non-blocking and polled: a blocking
/// read with a timeout wakes on the kernel tick (several ms), which would
/// make both the schedule and the reply stamps late.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to sesr-netd");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_nonblocking(true).expect("non-blocking socket");
        Conn {
            stream,
            buf: Vec::new(),
            next_id: 1,
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn send(&mut self, frame: &Frame) {
        let bytes = wire::encode(frame);
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => panic!("send to sesr-netd: {e}"),
            }
        }
    }

    /// Every whole frame readable right now.
    fn poll(&mut self) -> Vec<Frame> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("sesr-netd closed the connection"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read from sesr-netd: {e}"),
            }
        }
        let mut frames = Vec::new();
        while let FrameDecode::Complete { frame, consumed } =
            wire::decode(&self.buf, wire::DEFAULT_MAX_PAYLOAD)
                .expect("sesr-netd speaks the wire protocol")
        {
            self.buf.drain(..consumed);
            frames.push(frame);
        }
        frames
    }

    /// The server's telemetry snapshot, over the Stats frame.
    fn stats(&mut self) -> TelemetrySnapshot {
        let want = self.id();
        self.send(&Frame::Stats { id: want });
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            for frame in self.poll() {
                if let Frame::StatsReply { id, json } = frame {
                    if id == want {
                        return TelemetrySnapshot::from_json(&json)
                            .expect("stats frame holds a snapshot");
                    }
                }
            }
            std::thread::sleep(POLL);
        }
        panic!("no stats reply from sesr-netd");
    }
}

struct Sent {
    due: Instant,
    image: usize,
    route: usize,
    measured: bool,
    root: u64,
}

/// A traffic window: requests due in `[start, warm_end)` warm the cache and
/// are not counted; those due in `[warm_end, end)` are.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    warm_end: Instant,
    end: Instant,
}

/// One connection's share of the open loop, with arrivals drawn from `seed`.
fn connection(
    addr: SocketAddr,
    seed: u64,
    traffic: &Traffic,
    schedule: Schedule,
    mut log: SpanLog,
) -> (Window, Conn) {
    let Schedule {
        start,
        warm_end,
        end,
    } = schedule;
    let mut client = Conn::connect(addr);
    let mut rng = StdRng::seed_from_u64(seed);
    let rate = RATE / CONNECTIONS as f64;
    let mut due = start + gap(&mut rng, rate);
    let mut inflight: HashMap<u64, Sent> = HashMap::new();
    let mut w = Window::default();
    loop {
        let now = Instant::now();
        if due < end && now >= due {
            let (image, route) = traffic.draw(&mut rng);
            let image_tensor = traffic.pool[image].clone();
            let id = client.id();
            let request = Frame::Request(WireRequest {
                id,
                route: traffic.labels[route].clone(),
                deadline_ms: 0,
                skip_cache: false,
                content_hash: content_hash(&image_tensor, ""),
                image: image_tensor,
            });
            let measured = due >= warm_end;
            let root = if measured { log.reserve() } else { 0 };
            let t = Instant::now();
            client.send(&request);
            if measured {
                log.record("net.send", root, id, t, Instant::now());
                w.sent += 1;
                w.late_ms.push(ms(t - due));
            }
            inflight.insert(
                id,
                Sent {
                    due,
                    image,
                    route,
                    measured,
                    root,
                },
            );
            due += gap(&mut rng, rate);
            continue;
        }
        if (due >= end && inflight.is_empty()) || now >= end + DRAIN {
            break;
        }
        let frames = client.poll();
        let t = Instant::now();
        if frames.is_empty() {
            std::thread::sleep(due.saturating_duration_since(t).min(POLL));
        }
        for frame in frames {
            let Frame::Response(reply) = frame else {
                continue;
            };
            let Some(sent) = inflight.remove(&reply.id) else {
                continue;
            };
            if !sent.measured {
                continue;
            }
            log.record_reserved(sent.root, "net.request", 0, reply.id, sent.due, t);
            match reply.body {
                ResponseBody::Ok { defended, .. }
                    if defended == traffic.expected[sent.image][sent.route] =>
                {
                    w.ok += 1;
                    w.latencies_ms.push(ms(t - sent.due));
                    if t <= end {
                        w.ok_in_window += 1;
                        w.last_ok = w.last_ok.max(t - warm_end);
                    }
                }
                ResponseBody::Ok { .. } => w.wrong += 1,
                _ => w.failed += 1,
            }
        }
    }
    w.failed += inflight.values().filter(|s| s.measured).count() as u64;
    w.spans = log.spans;
    (w, client)
}

/// Drive both connections for `dur` after a warm-up; returns the window
/// (with the server's CPU time) and a connection for stats requests.
fn drive(
    netd: &Netd,
    traffic: &Traffic,
    seed: u64,
    stream: u64,
    dur: Duration,
    log: &SpanLog,
) -> (Window, Conn) {
    let start = Instant::now();
    let warm_end = start + WARMUP;
    let end = warm_end + dur;
    let schedule = Schedule {
        start,
        warm_end,
        end,
    };
    let mut window = Window::default();
    let mut clients = Vec::new();
    std::thread::scope(|scope| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (log, seed) = (log.fork(), mix(seed, stream + c));
                scope.spawn(move || connection(netd.addr, seed, traffic, schedule, log))
            })
            .collect();
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let cpu_before = thread_cpu_ns(netd.pid());
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        window.cpu_ns = cpu_between(&cpu_before, &thread_cpu_ns(netd.pid()), &[]);
        for conn in conns {
            let (w, client) = conn.join().expect("connection thread");
            window.absorb(w);
            clients.push(client);
        }
    });
    (window, clients.swap_remove(0))
}

pub fn run(args: &Args) -> Outcome {
    let netd_path = std::env::current_exe()
        .expect("own path")
        .with_file_name("sesr-netd");
    let traffic = Traffic::new(args.seed);
    let runtime = args.seconds + 60;

    let mut setup_s = Vec::new();
    let mut frames = Frames::new(args.seed, 2, SIDE);
    let mut setup_wrong = 0;
    let mut netd = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let server = Netd::spawn(&netd_path, runtime);
        let mut client = NetClient::connect(server.addr).expect("connect to sesr-netd");
        let frame = frames.next_frame();
        let reply = client
            .defend(
                frame.clone(),
                &RequestOptions::default(),
                Duration::from_secs(10),
            )
            .expect("first reply");
        setup_s.push(t0.elapsed().as_secs_f64());
        let good = matches!(&reply.body, ResponseBody::Ok { defended, .. } if *defended == expected(&routes()[0], &frame));
        setup_wrong += u64::from(!good);
        netd = Some(server);
    }
    let netd = netd.expect("at least one setup");
    let setup = median(&setup_s);

    let dur = Duration::from_secs(args.seconds);
    let off = SpanLog::new(false);
    let (mut window, metrics) = if args.trace {
        let (plain, mut client) = drive(&netd, &traffic, args.seed, 20, dur / 2, &off);
        let before = client.stats();
        drop(client);
        let mut log = SpanLog::new(true);
        let t = Instant::now();
        let (mut traced, mut client) = drive(&netd, &traffic, args.seed, 30, dur / 2, &log);
        let elapsed = t.elapsed();
        let delta = TelemetryDelta {
            before,
            after: client.stats(),
        };
        let m = traced_layers(
            &traffic, &delta, elapsed, &plain, &traced, args.seed, &mut log,
        );
        log.spans.append(&mut traced.spans);
        crate::write_spans(&log, args);
        traced.absorb(plain);
        (traced, Some(m))
    } else {
        let (window, _) = drive(&netd, &traffic, args.seed, 20, dur, &off);
        (window, None)
    };
    let rss = peak_rss_mib(netd.pid());
    drop(netd);
    window.wrong += setup_wrong;
    let metrics = metrics.unwrap_or_else(|| Metrics::end_to_end(&window, setup, rss));
    crate::finish(&window, metrics, true)
}

/// The per-layer metrics of `front`.
fn traced_layers(
    traffic: &Traffic,
    delta: &TelemetryDelta,
    elapsed: Duration,
    plain: &Window,
    traced: &Window,
    seed: u64,
    log: &mut SpanLog,
) -> Metrics {
    let mut m = Metrics::default();
    // Nothing on this workload runs SESR; the table shows what SESR-M2
    // would cost at the front's frame size.
    let frame = &traffic.pool[0];
    layers::sr_table(
        SrModelKind::SesrM2,
        frame,
        Duration::from_secs(1),
        log,
        &mut m,
    );
    let out = &traffic.expected[0][0];
    layers::imaging(frame, &mut m);
    layers::classifier(out, &mut m);
    layers::serving(
        delta,
        routes().len() * RouteConfig::default().num_workers,
        elapsed,
        &mut m,
    );
    m.put("serve.submit_us", replay_submit_us(traffic, seed), "us");
    layers::wire_codec(frame, out, &routes()[2].label(), &mut m);
    layers::net_request(delta, &mut m);
    layers::harness(plain, traced, &mut m);
    m
}

/// Median `GatewayClient::submit` time in µs over the front's request mix,
/// replayed closed loop through an in-process gateway built like
/// `sesr-netd`'s.
fn replay_submit_us(traffic: &Traffic, seed: u64) -> f64 {
    let mut builder = GatewayBuilder::new();
    for route in routes() {
        builder = builder.route_with(route, RouteConfig::default());
    }
    let gateway = builder.build().expect("front routes build");
    let client = gateway.client();
    let mut rng = StdRng::seed_from_u64(mix(seed, 2000));
    let mut times = Vec::with_capacity(REPLAY);
    for i in 0..REPLAY {
        let (image, route) = traffic.draw(&mut rng);
        let request = DefenseRequest::new(traffic.pool[image].clone()).on(routes()[route]);
        let t = Instant::now();
        let pending = client.submit(request).expect("replay admitted");
        if i >= REPLAY / 4 {
            times.push(ms(t.elapsed()) * 1e3);
        }
        pending.wait().expect("replay served");
    }
    drop(client);
    gateway.shutdown();
    median(&times)
}
