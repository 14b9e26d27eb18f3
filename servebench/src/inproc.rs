//! `camera` and `burst`: an in-process `DefenseGateway` on one SESR route,
//! built with `RouteConfig::default()`.

use crate::layers::{self, preprocess, NUM_CLASSES};
use crate::measure::{
    cpu_between, median, mix, ms, peak_rss_mib, quantile, thread_cpu_ns, Frames, HarnessThreads,
    Metrics, SpanLog, TelemetryDelta, Window, WEIGHTS_SEED,
};
use crate::{Args, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::ClassifierKind;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::SrModelKind;
use sesr_net::{NetClient, NetConfig, NetServer, RequestOptions, ResponseBody};
use sesr_nn::Layer;
use sesr_serve::{
    DefenseGateway, DefenseRequest, DefenseResponse, GatewayBuilder, GatewayClient,
    PendingResponse, RouteConfig, RouteKey, ServeError, WorkerAssets,
};
use sesr_tensor::Tensor;
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// One in-process workload.
pub struct Spec {
    kind: SrModelKind,
    preprocess: PreprocessConfig,
    /// Run MobileNet-V2 on every defended frame.
    classify: bool,
    side: usize,
    /// `None`: two closed-loop cameras. `Some(n)`: `n` frames at once every
    /// second, open loop.
    burst: Option<usize>,
    /// One reply in `sample_period` is checked against the reference.
    sample_period: u64,
}

/// The paper's deployment: SESR-M2 after JPEG and wavelet, then MobileNet-V2,
/// two cameras.
pub fn camera() -> Spec {
    Spec {
        kind: SrModelKind::SesrM2,
        preprocess: PreprocessConfig::paper(),
        classify: true,
        side: 64,
        burst: None,
        sample_period: 24,
    }
}

/// Defend only: SESR-XL after wavelet, 8 frames arriving together each second.
pub fn burst() -> Spec {
    Spec {
        kind: SrModelKind::SesrXl,
        preprocess: PreprocessConfig::without_jpeg(),
        classify: false,
        side: 32,
        burst: Some(8),
        sample_period: 16,
    }
}

const SETUPS: usize = 11;
const CAMERAS: usize = 2;
/// Requests sent through a loopback front in the traced run.
const NET_PROBES: usize = 12;
/// SR outputs may differ from the expanded reference network by this much.
const TOLERANCE: f32 = 1e-3;

/// A reply kept for the reference check.
struct Sample {
    frame: Tensor,
    defended: Tensor,
    label: Option<usize>,
}

impl Spec {
    fn key(&self) -> RouteKey {
        RouteKey::new(self.kind, 2, self.preprocess)
    }

    fn build(&self) -> DefenseGateway {
        let key = self.key();
        let builder = if self.classify {
            let (kind, preprocess) = (self.kind, self.preprocess);
            GatewayBuilder::new().route_with_factory(key, RouteConfig::default(), move |_worker| {
                let upscaler = kind.build_seeded_upscaler(2, WEIGHTS_SEED)?;
                let classifier = ClassifierKind::MobileNetV2
                    .build_local(NUM_CLASSES, &mut StdRng::seed_from_u64(WEIGHTS_SEED));
                Ok(WorkerAssets::with_classifier(
                    DefensePipeline::new(preprocess, upscaler),
                    classifier,
                ))
            })
        } else {
            GatewayBuilder::new().route_with(key, RouteConfig::default())
        };
        builder
            .seed(WEIGHTS_SEED)
            .build()
            .expect("the workload's route builds")
    }

    fn submit(&self, client: &GatewayClient, frame: Tensor) -> Result<PendingResponse, ServeError> {
        client.submit(DefenseRequest::new(frame).on(self.key()))
    }
}

/// Replies of one client thread.
#[derive(Default)]
struct Tally {
    window: Window,
    kept: Vec<Sample>,
}

impl Tally {
    /// Count one reply; `done` is its arrival since the window's start, or
    /// `None` when it came after the window.
    fn add(
        &mut self,
        spec: &Spec,
        result: Result<DefenseResponse, ServeError>,
        frame: Option<Tensor>,
        latency: Duration,
        done: Option<Duration>,
    ) {
        let w = &mut self.window;
        match result {
            // Well formed: the route's output shape, and a label exactly
            // when the route classifies.
            Ok(r)
                if r.defended.shape().dims() == [1, 3, 2 * spec.side, 2 * spec.side]
                    && r.label.is_some() == spec.classify =>
            {
                w.ok += 1;
                w.latencies_ms.push(ms(latency));
                if let Some(done) = done {
                    w.ok_in_window += 1;
                    w.last_ok = w.last_ok.max(done);
                }
                if let Some(frame) = frame {
                    self.kept.push(Sample {
                        frame,
                        defended: r.defended,
                        label: r.label,
                    });
                }
            }
            Ok(_) => w.wrong += 1,
            Err(_) => w.failed += 1,
        }
    }
}

/// What every window of one workload shares.
struct Load<'a> {
    spec: &'a Spec,
    client: &'a GatewayClient,
    seed: u64,
    harness: &'a HarnessThreads,
}

impl Load<'_> {
    /// Drive the workload for `dur`; frames come from input stream `stream`.
    fn drive(&self, stream: u64, dur: Duration, log: &SpanLog) -> (Window, Vec<Sample>) {
        let pid = std::process::id();
        let cpu_before = thread_cpu_ns(pid);
        let tallies = match self.spec.burst {
            Some(n) => self.open_loop(n, stream, dur, log),
            None => self.closed_loop(stream, dur, log),
        };
        let mut window = Window::default();
        let mut kept = Vec::new();
        for tally in tallies {
            window.absorb(tally.window);
            kept.extend(tally.kept);
        }
        window.cpu_ns = cpu_between(&cpu_before, &thread_cpu_ns(pid), &self.harness.tids());
        (window, kept)
    }

    /// The seeded choice of replies checked against the reference.
    fn sampled(&self, stream: u64, request: u64, frame: &Tensor) -> Option<Tensor> {
        mix(self.seed ^ stream, request)
            .is_multiple_of(self.spec.sample_period)
            .then(|| frame.clone())
    }

    /// Closed loop, two cameras with synchronised shutters: a camera sends
    /// its next frame once both cameras' previous replies have arrived.
    /// The last camera to get its reply submits both frames back to back,
    /// so they always land within the batcher's linger. Free-running
    /// clients, or two threads each woken to submit, drift in and out of
    /// sharing a batch at random, which swung `fps` by ±20% between runs.
    fn closed_loop(&self, stream: u64, dur: Duration, log: &SpanLog) -> Vec<Tally> {
        struct Sent {
            root: u64,
            released: Instant,
            submitted: Instant,
            pending: Result<PendingResponse, ServeError>,
        }
        let start = Instant::now();
        let end = start + dur;
        let shutter = Barrier::new(CAMERAS);
        let queued: Mutex<[Option<(u64, Tensor)>; CAMERAS]> = Mutex::default();
        let sent: Mutex<[Option<Sent>; CAMERAS]> = Mutex::default();
        std::thread::scope(|scope| {
            let cameras: Vec<_> = (0..CAMERAS)
                .map(|c| {
                    let mut log = log.fork();
                    let (shutter, queued, sent) = (&shutter, &queued, &sent);
                    scope.spawn(move || {
                        self.harness.join();
                        let mut frames = Frames::new(self.seed, stream + c as u64, self.spec.side);
                        let mut tally = Tally::default();
                        let mut frame = frames.next_frame();
                        for index in 0u64.. {
                            let request = ((c as u64) << 32) | index;
                            let kept = self.sampled(stream, request, &frame);
                            queued.lock().expect("camera queue lock")[c] = Some((request, frame));
                            if shutter.wait().is_leader() {
                                // Past the window the leader submits nothing,
                                // which tells every camera to stop.
                                let released = Instant::now();
                                if released < end {
                                    let mut queued = queued.lock().expect("camera queue lock");
                                    let mut sent = sent.lock().expect("camera reply lock");
                                    for (slot, out) in queued.iter_mut().zip(sent.iter_mut()) {
                                        let (request, frame) =
                                            slot.take().expect("both cameras queued");
                                        let root = log.reserve();
                                        let submitted = Instant::now();
                                        let (pending, _) =
                                            log.time("serve.submit", root, request, || {
                                                self.spec.submit(self.client, frame)
                                            });
                                        *out = Some(Sent {
                                            root,
                                            released,
                                            submitted,
                                            pending,
                                        });
                                    }
                                }
                            }
                            shutter.wait();
                            let mine = sent.lock().expect("camera reply lock")[c].take();
                            let Some(Sent {
                                root,
                                released,
                                submitted,
                                pending,
                            }) = mine
                            else {
                                break;
                            };
                            tally.window.late_ms.push(ms(submitted - released));
                            tally.window.sent += 1;
                            // The next frame is made while this one is served.
                            frame = frames.next_frame();
                            let result = pending.and_then(|pending| {
                                log.time("serve.wait", root, request, || pending.wait()).0
                            });
                            let t1 = Instant::now();
                            log.record_reserved(root, "request", 0, request, submitted, t1);
                            let done = (t1 <= end).then(|| t1 - start);
                            tally.add(self.spec, result, kept, t1 - submitted, done);
                        }
                        tally.window.spans = log.spans;
                        tally
                    })
                })
                .collect();
            cameras
                .into_iter()
                .map(|c| c.join().expect("camera thread"))
                .collect()
        })
    }

    /// Open loop: `n` frames are due together at every whole second; latency
    /// is timed from that due time. A collector thread polls the pending
    /// replies, so each is stamped when it lands, in any order.
    fn open_loop(&self, n: usize, stream: u64, dur: Duration, log: &SpanLog) -> Vec<Tally> {
        struct InFlight {
            pending: PendingResponse,
            due: Instant,
            request: u64,
            root: u64,
            kept: Option<Tensor>,
        }
        let start = Instant::now();
        let end = start + dur;
        let (tx, rx) = mpsc::channel::<InFlight>();
        std::thread::scope(|scope| {
            let mut gen_log = log.fork();
            let generator = scope.spawn(move || {
                self.harness.join();
                let mut frames = Frames::new(self.seed, stream, self.spec.side);
                let mut tally = Tally::default();
                let w = &mut tally.window;
                let mut request = 0u64;
                for second in 0.. {
                    let due = start + Duration::from_secs(second);
                    if due >= end {
                        break;
                    }
                    // The burst's frames exist before it is due, so all of
                    // them are submitted within the batcher's 1 ms linger.
                    let burst: Vec<Tensor> = (0..n).map(|_| frames.next_frame()).collect();
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    for frame in burst {
                        let kept = self.sampled(stream, request, &frame);
                        let root = gen_log.reserve();
                        w.late_ms.push(ms(Instant::now() - due));
                        w.sent += 1;
                        let (pending, _) = gen_log.time("serve.submit", root, request, || {
                            self.spec.submit(self.client, frame)
                        });
                        match pending {
                            Ok(pending) => tx
                                .send(InFlight {
                                    pending,
                                    due,
                                    request,
                                    root,
                                    kept,
                                })
                                .expect("collector outlives the generator"),
                            Err(_) => w.failed += 1,
                        }
                        request += 1;
                    }
                }
                drop(tx);
                tally.window.spans = gen_log.spans;
                tally
            });
            let mut col_log = log.fork();
            let collector = scope.spawn(move || {
                self.harness.join();
                let mut tally = Tally::default();
                let mut outstanding: Vec<InFlight> = Vec::new();
                let mut open = true;
                let give_up = end + Duration::from_secs(20);
                loop {
                    while open {
                        match rx.try_recv() {
                            Ok(job) => outstanding.push(job),
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => open = false,
                        }
                    }
                    if !open && outstanding.is_empty() {
                        break;
                    }
                    if Instant::now() >= give_up {
                        tally.window.failed += outstanding.len() as u64;
                        break;
                    }
                    let before = outstanding.len();
                    let mut i = 0;
                    while i < outstanding.len() {
                        let Some(result) = outstanding[i].pending.try_wait() else {
                            i += 1;
                            continue;
                        };
                        let t = Instant::now();
                        let job = outstanding.swap_remove(i);
                        col_log.record_reserved(job.root, "request", 0, job.request, job.due, t);
                        let done = (t <= end).then(|| t - start);
                        tally.add(self.spec, result, job.kept, t - job.due, done);
                    }
                    if outstanding.len() == before {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                tally.window.spans = col_log.spans;
                tally
            });
            vec![
                generator.join().expect("generator thread"),
                collector.join().expect("collector thread"),
            ]
        })
    }
}

/// The expanded SESR network (and classifier) the route must match.
struct Reference {
    sr: Box<dyn Layer>,
    classifier: Option<Box<dyn Layer>>,
}

impl Reference {
    fn new(spec: &Spec) -> Self {
        Reference {
            sr: spec
                .kind
                .build_local_network(&mut StdRng::seed_from_u64(WEIGHTS_SEED))
                .expect("SESR kinds build a network"),
            classifier: spec.classify.then(|| {
                ClassifierKind::MobileNetV2
                    .build_local(NUM_CLASSES, &mut StdRng::seed_from_u64(WEIGHTS_SEED))
            }),
        }
    }

    fn matches(&mut self, spec: &Spec, sample: &Sample) -> bool {
        let x = preprocess(spec.preprocess, &sample.frame);
        let expected = self
            .sr
            .forward(&x, false)
            .expect("SR accepts RGB")
            .clamp(0.0, 1.0);
        let close = sample
            .defended
            .max_abs_diff(&expected)
            .is_ok_and(|d| d <= TOLERANCE);
        let label = self.classifier.as_mut().map(|c| {
            let logits = c.forward(&expected, false).expect("classifier accepts RGB");
            let row = logits.data();
            (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best })
        });
        close && label == sample.label
    }
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let harness = HarnessThreads::default();
    harness.join();
    let mut samples = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_frames = Frames::new(args.seed, 1, spec.side);
    let mut served: Option<(DefenseGateway, GatewayClient)> = None;
    for _ in 0..SETUPS {
        if let Some((gateway, client)) = served.take() {
            drop(client);
            gateway.shutdown();
        }
        let t0 = Instant::now();
        let gateway = spec.build();
        let client = gateway.client();
        let frame = setup_frames.next_frame();
        let reply = spec
            .submit(&client, frame.clone())
            .and_then(PendingResponse::wait)
            .expect("the first request of a fresh gateway is served");
        setup_s.push(t0.elapsed().as_secs_f64());
        samples.push(Sample {
            frame,
            defended: reply.defended,
            label: reply.label,
        });
        served = Some((gateway, client));
    }
    let (gateway, client) = served.expect("at least one setup");
    let load = Load {
        spec,
        client: &client,
        seed: args.seed,
        harness: &harness,
    };

    // Warm the workers' arenas before anything is timed.
    let off = SpanLog::new(false);
    let warm = if spec.burst.is_some() { 1 } else { 2 };
    load.drive(10, Duration::from_secs(warm), &off);

    let dur = Duration::from_secs(args.seconds);
    let mut layers_ok = true;
    let (mut window, kept, layer_metrics) = if args.trace {
        // Half the run untraced, half traced: the difference is the
        // tracing overhead.
        let (plain, mut kept) = load.drive(20, dur / 2, &off);
        let mut log = SpanLog::new(true);
        let before = client.telemetry_snapshot();
        let t = Instant::now();
        let (mut traced, more) = load.drive(30, dur / 2, &log);
        let delta = TelemetryDelta {
            before,
            after: client.telemetry_snapshot(),
        };
        let elapsed = t.elapsed();
        kept.extend(more);
        let (metrics, ratio) = traced_layers(&load, &delta, elapsed, &plain, &traced, &mut log);
        layers_ok = layers::layer_sum_ok(ratio);
        log.spans.append(&mut traced.spans);
        crate::write_spans(&log, args);
        traced.absorb(plain);
        (traced, kept, Some(metrics))
    } else {
        let (window, kept) = load.drive(20, dur, &off);
        (window, kept, None)
    };
    let rss = peak_rss_mib(std::process::id());
    drop(client);
    gateway.shutdown();

    samples.extend(kept);
    let mut reference = Reference::new(spec);
    let wrong = samples
        .iter()
        .filter(|s| !reference.matches(spec, s))
        .count() as u64;
    eprintln!(
        "checked {} sampled replies against the reference: {wrong} wrong",
        samples.len()
    );
    window.wrong += wrong;
    let metrics =
        layer_metrics.unwrap_or_else(|| Metrics::end_to_end(&window, median(&setup_s), rss));
    crate::finish(&window, metrics, layers_ok)
}

/// The per-layer metrics of `camera` and `burst`; also returns
/// `sr.layer_sum_ratio`.
fn traced_layers(
    load: &Load,
    delta: &TelemetryDelta,
    elapsed: Duration,
    plain: &Window,
    traced: &Window,
    log: &mut SpanLog,
) -> (Metrics, f64) {
    let (spec, client) = (load.spec, load.client);
    let mut m = Metrics::default();
    layers::serving(delta, RouteConfig::default().num_workers, elapsed, &mut m);
    // The layers are timed at the batch shape the batcher actually formed.
    let batch = m
        .get("serve.batch_mean")
        .map_or(1, |b| (b.round() as usize).max(1));
    let mut frames = Frames::new(load.seed, 40, spec.side);
    let raw = Tensor::concat_batch(&(0..batch).map(|_| frames.next_frame()).collect::<Vec<_>>())
        .expect("frames share a shape");
    let x = preprocess(spec.preprocess, &raw);
    // Single SR calls jitter by ~15% on a shared 2-vCPU host, so the table
    // needs many iterations to put Σ ops / whole call within a few percent.
    let ratio = layers::sr_table(spec.kind, &x, Duration::from_secs(20), log, &mut m);
    let defended = spec
        .kind
        .build_seeded_upscaler(2, WEIGHTS_SEED)
        .and_then(|up| up.upscale(&x))
        .expect("SR accepts the batch");
    layers::imaging(&raw, &mut m);
    layers::classifier(&defended, &mut m);
    let submit_us = quantile(&traced.spans_ms("serve.submit"), 0.5) * 1e3;
    m.put("serve.submit_us", submit_us, "us");

    // The network layer at this workload's frames: a loopback front over the
    // same gateway.
    let first_out = defended
        .split_batch(1)
        .expect("batch splits")
        .swap_remove(0);
    layers::wire_codec(
        &frames.next_frame(),
        &first_out,
        &spec.key().label(),
        &mut m,
    );
    let before = client.telemetry_snapshot();
    let config = NetConfig {
        per_client_limit: None,
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config, client.clone()).expect("loopback bind");
    let mut net = NetClient::connect(server.local_addr()).expect("loopback connect");
    let options = RequestOptions {
        route: spec.key().label(),
        ..RequestOptions::default()
    };
    for _ in 0..NET_PROBES {
        let reply = net
            .defend(frames.next_frame(), &options, Duration::from_secs(30))
            .expect("loopback reply");
        assert!(
            matches!(reply.body, ResponseBody::Ok { .. }),
            "loopback request served"
        );
    }
    drop(net);
    server.stop();
    layers::net_request(
        &TelemetryDelta {
            before,
            after: client.telemetry_snapshot(),
        },
        &mut m,
    );

    layers::harness(plain, traced, &mut m);
    (m, ratio)
}
