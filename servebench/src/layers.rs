//! Per-layer metrics of the traced run: calls into each layer's public
//! functions timed from outside, plus the serving layers' own telemetry.

use crate::measure::{
    hist_ms, median, ms, quantile, time_median_ms, Metrics, SpanLog, TelemetryDelta, Window,
    WEIGHTS_SEED,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::ClassifierKind;
use sesr_defense::pipeline::PreprocessConfig;
use sesr_imaging::{jpeg_compress, wavelet_denoise, JpegConfig, WaveletConfig};
use sesr_models::{CollapsibleLinearBlock, SesrConfig, SrModelKind};
use sesr_net::wire::{self, Frame, ResponseBody, WireRequest, WireResponse};
use sesr_nn::spec::{NetworkSpec, OpDesc};
use sesr_nn::{Layer, PRelu, PixelShuffle, ScratchSpace};
use sesr_npu::{estimate_network, NpuConfig};
use sesr_serve::content_hash;
use sesr_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Classes of the MobileNet-V2 head served on `camera`.
pub const NUM_CLASSES: usize = 10;

/// The SR op groups: the `SesrConfig::inference_spec` op names with
/// repeated ops counted together, plus the two long residual adds.
pub const SR_OPS: [&str; 7] = [
    "conv5x5_first",
    "prelu_first",
    "conv3x3_body",
    "prelu_body",
    "conv5x5_last",
    "depth_to_space",
    "residual",
];
const FIRST: usize = 0;
const PRELU_FIRST: usize = 1;
const BODY: usize = 2;
const PRELU_BODY: usize = 3;
const LAST: usize = 4;
const SHUFFLE: usize = 5;
const RESIDUAL: usize = 6;

/// Op-by-op passes the SR table measures at least, each bracketed by whole
/// calls.
const MIN_PAIRS: usize = 60;
/// The SR table stops after this long even short of `MIN_PAIRS`.
const SR_TABLE_CAP: Duration = Duration::from_secs(80);

/// Whether the SR ops sum to the whole SR call within 5%.
pub fn layer_sum_ok(ratio: f64) -> bool {
    let ok = (ratio - 1.0).abs() <= 0.05;
    if !ok {
        eprintln!("SR ops sum to {ratio:.3} of the SR call, outside 1 ± 0.05");
    }
    ok
}

fn sesr_config(kind: SrModelKind) -> SesrConfig {
    match kind {
        SrModelKind::SesrM2 => SesrConfig::m2(),
        SrModelKind::SesrXl => SesrConfig::xl(),
        other => panic!("no workload serves {other}"),
    }
}

/// The op group of a spec op name (`conv3x3_body_4` → `conv3x3_body`).
fn group_of(name: &str) -> usize {
    let base = name
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('_');
    SR_OPS
        .iter()
        .position(|op| *op == base)
        .unwrap_or_else(|| panic!("spec op {name} has no group"))
}

/// `inference_spec` with the two long residual adds inserted where the
/// network runs them, so they get costs and a modelled time too.
fn spec_with_residuals(cfg: SesrConfig) -> NetworkSpec {
    let base = cfg.inference_spec();
    let mut spec = NetworkSpec::new(base.name.clone());
    for (name, op) in base.ops() {
        match name.as_str() {
            "conv5x5_last" => {
                spec.push(
                    "residual_0",
                    OpDesc::Elementwise {
                        channels: cfg.features,
                    },
                );
            }
            "depth_to_space" => {
                let channels = cfg.channels * cfg.scale * cfg.scale;
                spec.push("residual_1", OpDesc::Elementwise { channels });
            }
            _ => {}
        }
        spec.push(name.clone(), *op);
    }
    spec
}

/// The network the expanded (training-form) SESR actually executes: each
/// collapsible block is a k×k conv to `expansion` channels and a 1×1 conv.
fn expanded_spec(cfg: SesrConfig, expansion: usize) -> NetworkSpec {
    let mut spec = NetworkSpec::new("sesr_expanded");
    let block = |spec: &mut NetworkSpec, name: &str, cin: usize, cout: usize, k: usize| {
        let conv = |i, o, k| OpDesc::Conv2d {
            in_channels: i,
            out_channels: o,
            kernel: k,
            stride: 1,
            bias: true,
        };
        spec.push(format!("{name}_expand"), conv(cin, expansion, k));
        spec.push(format!("{name}_project"), conv(expansion, cout, 1));
    };
    block(&mut spec, "first", cfg.channels, cfg.features, 5);
    for i in 0..cfg.num_blocks {
        block(
            &mut spec,
            &format!("body_{i}"),
            cfg.features,
            cfg.features,
            3,
        );
    }
    let out = cfg.channels * cfg.scale * cfg.scale;
    block(&mut spec, "last", cfg.features, out, 5);
    spec.push(
        "depth_to_space",
        OpDesc::DepthToSpace {
            in_channels: out,
            r: cfg.scale,
        },
    );
    spec
}

/// The served expanded SESR rebuilt op by op from public constructors, so
/// each op can be timed on its own. Runs exactly the op sequence of
/// `Sesr::forward_scratch`.
struct SesrOps {
    cfg: SesrConfig,
    first: CollapsibleLinearBlock,
    act_first: PRelu,
    body: Vec<(CollapsibleLinearBlock, PRelu)>,
    last: CollapsibleLinearBlock,
    shuffle: PixelShuffle,
}

impl SesrOps {
    /// Rebuild the network `kind` serves, with its weights: the expansion
    /// width is recovered from the parameter count of
    /// `SrModelKind::build_local_network`, and the parameters are copied
    /// over in order (the same order as `Sesr::params`). Returns the ops
    /// and the expansion.
    fn served(kind: SrModelKind) -> (Self, usize) {
        let cfg = sesr_config(kind);
        let served = kind
            .build_local_network(&mut StdRng::seed_from_u64(WEIGHTS_SEED))
            .expect("SESR kinds build a network");
        let weights = served.params();
        let count: usize = weights.iter().map(|p| p.value.len()).sum();
        let prelu = cfg.features * (cfg.num_blocks + 1);
        let expansion = (1..=1024)
            .find(|&e| expanded_spec(cfg, e).total_params() as usize + prelu == count)
            .expect("served SESR has the expanded-block parameter count");
        let rng = &mut StdRng::seed_from_u64(WEIGHTS_SEED);
        let (f, out) = (cfg.features, cfg.channels * cfg.scale * cfg.scale);
        let mut ops = SesrOps {
            cfg,
            first: CollapsibleLinearBlock::new(cfg.channels, f, 5, expansion, rng),
            act_first: PRelu::new(f),
            body: (0..cfg.num_blocks)
                .map(|_| {
                    (
                        CollapsibleLinearBlock::new(f, f, 3, expansion, rng),
                        PRelu::new(f),
                    )
                })
                .collect(),
            last: CollapsibleLinearBlock::new(f, out, 5, expansion, rng),
            shuffle: PixelShuffle::new(cfg.scale),
        };
        let mut params = ops.first.params_mut();
        params.extend(ops.act_first.params_mut());
        for (block, act) in &mut ops.body {
            params.extend(block.params_mut());
            params.extend(act.params_mut());
        }
        params.extend(ops.last.params_mut());
        assert_eq!(
            params.len(),
            weights.len(),
            "rebuilt SESR has the served parameters"
        );
        for (to, from) in params.into_iter().zip(weights) {
            to.value = from.value.clone();
        }
        (ops, expansion)
    }

    /// One forward pass; adds each op group's time (ms) to `times`.
    fn forward(
        &mut self,
        x: &Tensor,
        scratch: &mut ScratchSpace,
        log: &mut SpanLog,
        parent: u64,
        times: &mut [f64; 7],
    ) -> sesr_tensor::Result<Tensor> {
        let mut timed = |op: usize, log: &mut SpanLog, start: Instant| {
            let end = Instant::now();
            times[op] += ms(end - start);
            log.record(&format!("layer.sr.{}", SR_OPS[op]), parent, 0, start, end);
        };
        let t = Instant::now();
        let f0 = self.first.forward_scratch(x, false, scratch)?;
        timed(FIRST, log, t);
        let t = Instant::now();
        let mut h = self.act_first.forward_scratch(&f0, false, scratch)?;
        timed(PRELU_FIRST, log, t);
        for (block, act) in &mut self.body {
            let t = Instant::now();
            let y = block.forward_scratch(&h, false, scratch)?;
            scratch.recycle(h);
            timed(BODY, log, t);
            let t = Instant::now();
            h = act.forward_scratch(&y, false, scratch)?;
            scratch.recycle(y);
            timed(PRELU_BODY, log, t);
        }
        let t = Instant::now();
        let y = h.add_arena(&f0, scratch.arena())?;
        scratch.recycle(h);
        scratch.recycle(f0);
        timed(RESIDUAL, log, t);
        let t = Instant::now();
        let mut z = self.last.forward_scratch(&y, false, scratch)?;
        scratch.recycle(y);
        timed(LAST, log, t);
        let t = Instant::now();
        add_input_residual(&mut z, x, self.cfg.scale, self.cfg.channels);
        timed(RESIDUAL, log, t);
        let t = Instant::now();
        let out = self.shuffle.forward_scratch(&z, false, scratch)?;
        scratch.recycle(z);
        timed(SHUFFLE, log, t);
        Ok(out)
    }
}

/// The second long residual: add the input image to every sub-pixel group
/// of `z` (the same loop as the network's own, which is private).
fn add_input_residual(z: &mut Tensor, x: &Tensor, scale: usize, channels: usize) {
    let dims = z.shape().dims().to_vec();
    let (n, zc, plane) = (dims[0], dims[1], dims[2] * dims[3]);
    let xd = x.data();
    let zd = z.data_mut();
    for b in 0..n {
        for g in 0..scale * scale {
            for c in 0..channels {
                let zb = (b * zc + g * channels + c) * plane;
                let xb = (b * channels + c) * plane;
                for i in 0..plane {
                    zd[zb + i] += xd[xb + i];
                }
            }
        }
    }
}

/// The SR per-op table for `kind` on the `[N, 3, H, W]` batch `x`: each
/// op's time next to its MACs, bytes and modelled Ethos-U55 time, and the
/// whole `Upscaler::upscale_scratch` call they must add up to. Returns
/// `sr.layer_sum_ratio`.
pub fn sr_table(
    kind: SrModelKind,
    x: &Tensor,
    budget: Duration,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> f64 {
    let cfg = sesr_config(kind);
    let (mut ops, expansion) = SesrOps::served(kind);
    let dims = x.shape().dims().to_vec();
    let (batch, input) = (dims[0] as u64, (dims[1], dims[2], dims[3]));

    let upscaler = kind
        .build_seeded_upscaler(2, WEIGHTS_SEED)
        .expect("SESR builds at x2");
    // One arena for both passes, so they run on the same buffers.
    let mut scratch = ScratchSpace::new();
    let rebuilt = ops
        .forward(x, &mut scratch, &mut SpanLog::new(false), 0, &mut [0.0; 7])
        .expect("rebuilt SR ops accept the workload's batch");
    let served = upscaler
        .upscale(x)
        .expect("served SR accepts the workload's batch");
    assert!(
        rebuilt
            .clamp(0.0, 1.0)
            .max_abs_diff(&served)
            .is_ok_and(|d| d <= 1e-3),
        "the rebuilt SR ops compute the served network"
    );
    let whole = |log: &mut SpanLog, scratch: &mut ScratchSpace| {
        let (out, took) = log.time("layer.sr.upscale_scratch", 0, 0, || {
            upscaler.upscale_scratch(x, scratch)
        });
        scratch.recycle(out.expect("served SR accepts the workload's batch"));
        ms(took)
    };
    let mut upscale_ms = Vec::new();
    let mut op_ms: [Vec<f64>; 7] = Default::default();
    // Σ ops ÷ the mean of the whole calls just before and just after: the
    // bracketing cancels the machine's drift across the pass.
    let mut ratios = Vec::new();
    let started = Instant::now();
    // Whole calls and op-by-op passes alternate, starting and ending with a
    // whole call; the first two passes of each warm the arena. On a shared
    // host single passes swing by ±15%, so the median needs at least
    // `MIN_PAIRS` of them to land within a percent or two.
    let mut before = whole(log, &mut scratch);
    let mut iteration = 0;
    while (iteration < 2 + MIN_PAIRS || started.elapsed() < budget)
        && started.elapsed() < SR_TABLE_CAP
    {
        let parent = log.reserve();
        let mut times = [0.0; 7];
        let t = Instant::now();
        let out = ops
            .forward(x, &mut scratch, log, parent, &mut times)
            .expect("rebuilt SR ops accept the workload's batch");
        scratch.recycle(out);
        log.record_reserved(parent, "layer.sr.ops", 0, 0, t, Instant::now());
        let after = whole(log, &mut scratch);
        if iteration >= 2 {
            upscale_ms.push(after);
            ratios.push(times.iter().sum::<f64>() / ((before + after) / 2.0));
            for (all, t) in op_ms.iter_mut().zip(times) {
                all.push(t);
            }
        }
        before = after;
        iteration += 1;
    }
    let upscale = median(&upscale_ms);

    let spec = spec_with_residuals(cfg);
    let costs = spec.costs(input).expect("SESR spec is consistent");
    let u55 = estimate_network(&spec, input, &NpuConfig::ethos_u55_256()).expect("U55 estimate");
    let (mut macs, mut bytes, mut u55_ms) = ([0u64; 7], [0u64; 7], [0f64; 7]);
    for (cost, layer) in costs.iter().zip(&u55.layers) {
        let g = group_of(&cost.name);
        macs[g] += cost.macs * batch;
        bytes[g] += 4 * (cost.params + batch * (cost.input_elements + cost.output_elements));
        u55_ms[g] += layer.seconds * 1e3 * batch as f64;
    }
    for (g, op) in SR_OPS.iter().enumerate() {
        let t = median(&op_ms[g]);
        m.put(format!("sr.{op}.ms"), t, "ms");
        m.put(format!("sr.{op}.macs"), macs[g] as f64, "count");
        m.put(format!("sr.{op}.bytes"), bytes[g] as f64, "bytes");
        m.put(
            format!("sr.{op}.gmacs"),
            macs[g] as f64 / (t * 1e6),
            "GMAC/s",
        );
        m.put(format!("sr.{op}.share"), t / upscale, "fraction");
        m.put(format!("sr.{op}.u55_ms"), u55_ms[g], "ms");
    }
    let executed = expanded_spec(cfg, expansion)
        .total_macs(input)
        .expect("expanded spec is consistent");
    let useful = cfg
        .inference_spec()
        .total_macs(input)
        .expect("SESR spec is consistent");
    m.put("sr.upscale_ms", upscale, "ms");
    m.put(
        "sr.useful_mac_frac",
        useful as f64 / executed as f64,
        "fraction",
    );
    let ratio = median(&ratios);
    eprintln!(
        "SR ops / whole call over {} iterations: quartiles {:.3} {:.3} {:.3}",
        ratios.len(),
        quantile(&ratios, 0.25),
        ratio,
        quantile(&ratios, 0.75)
    );
    m.put("sr.layer_sum_ratio", ratio, "ratio");
    let build = time_median_ms(Duration::from_millis(300), 5, || {
        black_box(
            kind.build_seeded_upscaler(2, WEIGHTS_SEED)
                .expect("SESR builds at x2"),
        );
    });
    m.put("sr.build_ms", build, "ms");
    ratio
}

/// A route's preprocessing, as the reference computes it: clamp, then JPEG
/// and wavelet when enabled.
pub fn preprocess(config: PreprocessConfig, frames: &Tensor) -> Tensor {
    let mut x = frames.clamp(0.0, 1.0);
    if let Some(jpeg) = config.jpeg {
        x = jpeg_compress(&x, jpeg).expect("jpeg accepts RGB");
    }
    if let Some(wavelet) = config.wavelet {
        x = wavelet_denoise(&x, wavelet).expect("wavelet accepts even sides");
    }
    x
}

/// `imaging.*`: the route's preprocessing kernels on the workload's batch.
pub fn imaging(frames: &Tensor, m: &mut Metrics) {
    let budget = Duration::from_millis(400);
    let jpeg = time_median_ms(budget, 5, || {
        black_box(jpeg_compress(frames, JpegConfig::default()).expect("jpeg accepts RGB"));
    });
    let wavelet = time_median_ms(budget, 5, || {
        black_box(
            wavelet_denoise(frames, WaveletConfig::default()).expect("wavelet accepts even sides"),
        );
    });
    m.put("imaging.jpeg_ms", jpeg, "ms");
    m.put("imaging.wavelet_ms", wavelet, "ms");
}

/// `classifiers.forward_ms`: MobileNet-V2 on the workload's defended batch.
pub fn classifier(defended: &Tensor, m: &mut Metrics) {
    let mut net = ClassifierKind::MobileNetV2
        .build_local(NUM_CLASSES, &mut StdRng::seed_from_u64(WEIGHTS_SEED));
    let t = time_median_ms(Duration::from_millis(800), 5, || {
        black_box(
            net.forward(defended, false)
                .expect("classifier accepts RGB"),
        );
    });
    m.put("classifiers.forward_ms", t, "ms");
}

/// `net.encode_us`, `net.decode_us`, `net.bytes_per_req`: one request frame
/// for `frame` and one reply frame for `defended`, through the wire codec.
pub fn wire_codec(frame: &Tensor, defended: &Tensor, route: &str, m: &mut Metrics) {
    let request = Frame::Request(WireRequest {
        id: 1,
        route: route.to_string(),
        deadline_ms: 0,
        skip_cache: false,
        content_hash: content_hash(frame, ""),
        image: frame.clone(),
    });
    let reply = Frame::Response(WireResponse {
        id: 1,
        body: ResponseBody::Ok {
            cache_hit: false,
            label: None,
            defended: defended.clone(),
        },
    });
    let budget = Duration::from_millis(200);
    let encode = time_median_ms(budget, 20, || {
        black_box(wire::encode(black_box(&request)));
        black_box(wire::encode(black_box(&reply)));
    });
    let (rq, rp) = (wire::encode(&request), wire::encode(&reply));
    let decode = time_median_ms(budget, 20, || {
        black_box(
            wire::decode(black_box(&rq), wire::DEFAULT_MAX_PAYLOAD).expect("own frame decodes"),
        );
        black_box(
            wire::decode(black_box(&rp), wire::DEFAULT_MAX_PAYLOAD).expect("own frame decodes"),
        );
    });
    m.put("net.encode_us", encode * 1e3, "us");
    m.put("net.decode_us", decode * 1e3, "us");
    m.put("net.bytes_per_req", (rq.len() + rp.len()) as f64, "bytes");
}

/// `serve.*`, `core.*` and `arena.*` from the serving process's telemetry
/// over a window of `window` with `workers` worker threads in all.
pub fn serving(d: &TelemetryDelta, workers: usize, window: Duration, m: &mut Metrics) {
    let stage = |name: &str| d.histogram("route.", &format!(".stage.{name}_ns"));
    let (queue, dwell) = (stage("queue_wait"), stage("batch_dwell"));
    let (pre, sr, classify) = (stage("preprocess"), stage("sr_forward"), stage("classify"));
    m.put("serve.queue_wait_p50_ms", hist_ms(&queue, 0.5), "ms");
    m.put("serve.queue_wait_p95_ms", hist_ms(&queue, 0.95), "ms");
    m.put("serve.batch_dwell_p50_ms", hist_ms(&dwell, 0.5), "ms");
    m.put("serve.batch_dwell_p95_ms", hist_ms(&dwell, 0.95), "ms");
    let batches = d.counter("route.", ".batches");
    let images = d.counter("route.", ".batched_images");
    m.put(
        "serve.batch_mean",
        images as f64 / batches.max(1) as f64,
        "images",
    );
    let busy = (pre.sum + sr.sum + classify.sum) as f64;
    m.put(
        "serve.worker_busy_frac",
        busy / (workers as f64 * window.as_nanos() as f64),
        "fraction",
    );
    let hits = d.counter("gateway.cache_hits", "");
    let completed = d.counter("gateway.completed", "");
    m.put(
        "serve.cache_hit_frac",
        hits as f64 / completed.max(1) as f64,
        "fraction",
    );
    m.put(
        "serve.cache_lookup_p50_us",
        hist_ms(&stage("cache_lookup"), 0.5) * 1e3,
        "us",
    );
    m.put("core.preprocess_ms", hist_ms(&pre, 0.5), "ms");
    m.put("core.sr_ms", hist_ms(&sr, 0.5), "ms");
    let arena_hits = d.gauge("route.", ".hits") as f64;
    let arena_misses = d.gauge("route.", ".misses") as f64;
    m.put(
        "arena.hit_frac",
        arena_hits / (arena_hits + arena_misses).max(1.0),
        "fraction",
    );
    m.put(
        "arena.high_water_kib",
        d.gauge("route.", ".high_water_bytes") as f64 / 1024.0,
        "KiB",
    );
}

/// `net.request_p50_ms`: the front's admission-to-reply time.
pub fn net_request(d: &TelemetryDelta, m: &mut Metrics) {
    m.put(
        "net.request_p50_ms",
        hist_ms(&d.histogram("net.request_ns", ""), 0.5),
        "ms",
    );
}

/// The harness's own health: how late the generator ran, and the traced
/// half's end-to-end numbers minus the untraced half's.
pub fn harness(plain: &Window, traced: &Window, m: &mut Metrics) {
    m.put("gen.late_p95_ms", quantile(&traced.late_ms, 0.95), "ms");
    m.put(
        "trace.overhead_p50_ms",
        traced.p50_ms() - plain.p50_ms(),
        "ms",
    );
    let cpu = traced.cpu_ms_per_req() - plain.cpu_ms_per_req();
    m.put("trace.overhead_cpu_ms_per_req", cpu, "ms");
}
