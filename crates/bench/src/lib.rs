//! # linda-bench
//!
//! Shared workload generators and harness helpers for the benchmark
//! suite that reproduces the paper's evaluation (§5.3). One Criterion
//! bench target exists per table/figure — see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]

use ftlinda_ags::{Ags, MatchField as MF, Operand, TsId};
use ftlinda_kernel::{encode_request, Kernel, KernelNote, Request};
use linda_tuple::{Tuple, TypeTag, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A random tuple with the given head and `fields` extra int fields.
pub fn int_tuple(head: &str, fields: usize, rng: &mut StdRng) -> Tuple {
    let mut v = vec![Value::Str(head.into())];
    for _ in 0..fields {
        v.push(Value::Int(rng.gen_range(0..1_000_000)));
    }
    Tuple::new(v)
}

/// A tuple carrying a string payload of `len` bytes.
pub fn payload_tuple(head: &str, len: usize) -> Tuple {
    Tuple::new(vec![Value::Str(head.into()), Value::Str("x".repeat(len))])
}

/// A standalone kernel with one stable space (TsId 0), pre-seeded by `f`.
/// Returns the kernel and a sequence counter starting after the setup
/// traffic.
pub fn seeded_kernel(f: impl FnOnce(&mut Kernel, &mut u64)) -> (Kernel, u64) {
    let (tx, rx) = std::sync::mpsc::channel::<KernelNote>();
    // Keep the receiver alive for the kernel's lifetime; notes are
    // drained by nobody (unbounded channel), which is fine for benches.
    std::mem::forget(rx);
    let mut k = Kernel::new(consul_sim::HostId(0), tx);
    let mut seq = 1u64;
    apply_request(&mut k, &mut seq, &Request::CreateTs { name: "b".into() });
    f(&mut k, &mut seq);
    (k, seq)
}

/// Apply one request to a kernel, advancing the sequence counter.
pub fn apply_request(k: &mut Kernel, seq: &mut u64, req: &Request) {
    let payload = bytes::Bytes::from(encode_request(req));
    k.apply(&consul_sim::Delivery::App {
        seq: *seq,
        origin: consul_sim::HostId(0),
        local: *seq,
        payload,
    });
    *seq += 1;
}

/// Apply a pre-encoded payload (hot path for latency benches: excludes
/// encode cost, includes decode + execute, like the paper's TS state
/// machine measurements).
pub fn apply_encoded(k: &mut Kernel, seq: &mut u64, payload: &bytes::Bytes) {
    k.apply(&consul_sim::Delivery::App {
        seq: *seq,
        origin: consul_sim::HostId(0),
        local: *seq,
        payload: payload.clone(),
    });
    *seq += 1;
}

/// Encode an AGS request once.
pub fn encoded(ags: &Ags) -> bytes::Bytes {
    bytes::Bytes::from(encode_request(&Request::Ags(ags.clone())))
}

/// The null AGS: `⟨ true ⇒ ⟩` — the paper's base cost row.
pub fn null_ags() -> Ags {
    Ags::builder().guard_true().build().unwrap()
}

/// `out` with `fields` constant int fields.
pub fn out_ags(fields: usize) -> Ags {
    let mut t = vec![Operand::cst("t")];
    for i in 0..fields {
        t.push(Operand::cst(i as i64));
    }
    Ags::out_one(TsId(0), t)
}

/// `⟨ in(t, …) ⇒ out(same) ⟩` with `fields` int fields of which the
/// first `formals` are formal — a self-replenishing `in`, so the store
/// population is steady across iterations.
pub fn in_out_ags(fields: usize, formals: usize) -> Ags {
    let formals = formals.min(fields);
    let mut pat = vec![MF::actual("t")];
    for i in 0..fields {
        if i < formals {
            pat.push(MF::bind(TypeTag::Int));
        } else {
            pat.push(MF::actual(i as i64));
        }
    }
    let mut tmpl = vec![Operand::cst("t")];
    for i in 0..fields {
        if i < formals {
            tmpl.push(Operand::formal(i as u16));
        } else {
            tmpl.push(Operand::cst(i as i64));
        }
    }
    Ags::builder()
        .guard_in(TsId(0), pat)
        .out(TsId(0), tmpl)
        .build()
        .unwrap()
}

/// Pretty-print a two-column table row (used by benches that report the
/// paper's table rows alongside Criterion timings).
pub fn print_row(label: &str, value: impl std::fmt::Display) {
    println!("    {label:<44} {value}");
}

/// Time `n` applications of `payload` on a fresh kernel from `mk`,
/// returning nanoseconds per apply (median of 5 runs). Used by benches to
/// print the paper-style table rows alongside Criterion's rigorous
/// measurements.
pub fn measure_ns_per_apply(mk: &dyn Fn() -> (Kernel, u64), payload: &bytes::Bytes, n: u64) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let (mut k, mut seq) = mk();
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            apply_encoded(&mut k, &mut seq, payload);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[2]
}

// ---------------------------------------------------------------------------
// Histogram-backed measurement (E2/E3/E5)
//
// The latency experiments consume the same `ftlinda_ags_*_seconds`
// histograms a production scrape would, instead of ad-hoc wall-clock
// loops: the numbers in EXPERIMENTS.md are then, by construction, the
// numbers `/metrics` exports.
// ---------------------------------------------------------------------------

/// Apply `n` copies of an encoded request on a fresh *instrumented*
/// kernel (fresh registry attached after seeding, so setup traffic is
/// excluded) and return the `ftlinda_ags_execute_seconds` snapshot.
pub fn instrumented_apply(
    mk: &dyn Fn() -> (Kernel, u64),
    payload: &bytes::Bytes,
    n: u64,
) -> linda_obs::HistogramSnapshot {
    let (mut k, mut seq) = mk();
    let reg = linda_obs::Registry::new();
    k.attach_obs(&reg);
    for _ in 0..n {
        apply_encoded(&mut k, &mut seq, payload);
    }
    stage_snapshot(&reg, "ftlinda_ags_execute_seconds")
}

/// Snapshot one named latency histogram from a registry (zeroed, not
/// absent, when nothing was observed yet).
pub fn stage_snapshot(reg: &linda_obs::Registry, name: &str) -> linda_obs::HistogramSnapshot {
    reg.histogram(name, "").snapshot()
}

/// Bucket-wise merge of one named stage histogram across several
/// registries — the cluster-wide view of that pipeline stage.
pub fn merged_stage(
    regs: &[std::sync::Arc<linda_obs::Registry>],
    name: &str,
) -> linda_obs::HistogramSnapshot {
    let mut it = regs.iter();
    let mut acc = stage_snapshot(it.next().expect("at least one registry"), name);
    for reg in it {
        assert!(
            acc.merge(&stage_snapshot(reg, name)),
            "bucket layout mismatch"
        );
    }
    acc
}

/// Render a histogram snapshot as a compact latency row:
/// `mean / p50 / p95 over count` in µs.
pub fn stage_cell(snap: &linda_obs::HistogramSnapshot) -> String {
    match (snap.mean(), snap.p50(), snap.p95()) {
        (Some(mean), Some(p50), Some(p95)) => format!(
            "mean {:>9.2} µs   p50 {:>9.2} µs   p95 {:>9.2} µs   (n={})",
            mean * 1e6,
            p50 * 1e6,
            p95 * 1e6,
            snap.count()
        ),
        _ => "no observations".into(),
    }
}

/// The per-stage pipeline metrics in causal order, as `(label, metric)`.
pub const PIPELINE_STAGES: &[(&str, &str)] = &[
    ("submit (client → wire)", "ftlinda_ags_submit_seconds"),
    ("order (submit → delivered)", "ftlinda_ags_order_seconds"),
    ("execute (kernel apply)", "ftlinda_ags_execute_seconds"),
    ("notify (apply → waiter)", "ftlinda_ags_notify_seconds"),
    ("total (submit → completion)", "ftlinda_ags_total_seconds"),
];

/// Print the per-stage latency attribution for a set of member
/// registries (merged bucket-wise), one row per pipeline stage.
pub fn print_stage_attribution(regs: &[std::sync::Arc<linda_obs::Registry>]) {
    for (label, metric) in PIPELINE_STAGES {
        print_row(label, stage_cell(&merged_stage(regs, metric)));
    }
}

// ---------------------------------------------------------------------------
// Bench artifact files
//
// Several bench targets contribute sections to the same JSON artifact
// (`BENCH_msgs_per_ags.json`): `batch_window` owns the batching off/on
// points and `shard_sweep` owns the shard-sweep section. Each writer
// updates only its own top-level keys so the benches can run in any
// order (or alone) without clobbering the other's results.
// ---------------------------------------------------------------------------

/// Set or replace top-level keys of a JSON-object artifact file,
/// preserving every other key. Creates the file (as `{…}`) when absent
/// or not a JSON object. `sections` holds `(key, pre-rendered value)`
/// pairs; the value must itself be valid JSON.
pub fn update_artifact_sections(path: &str, sections: &[(&str, String)]) {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .filter(|s| s.trim_start().starts_with('{'))
        .unwrap_or_else(|| "{\n}\n".into());
    for (key, value) in sections {
        doc = set_json_key(&doc, key, value);
    }
    match std::fs::write(path, &doc) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Replace the value of top-level `key` in a rendered JSON object, or
/// insert the key before the closing brace when absent.
fn set_json_key(doc: &str, key: &str, value: &str) -> String {
    let needle = format!("\"{key}\"");
    if let Some((start, end)) = top_level_value_span(doc, &needle) {
        format!("{}{}{}", &doc[..start], value, &doc[end..])
    } else {
        // Insert before the final `}`.
        let close = doc.rfind('}').unwrap_or(doc.len());
        let body = doc[..close].trim_end();
        let comma = if body.trim_start().len() > 1 { "," } else { "" };
        format!("{body}{comma}\n  \"{key}\": {value}\n}}\n")
    }
}

/// Byte span of the value bound to `needle` (a quoted key) at nesting
/// depth 1, skipping string contents while scanning.
fn top_level_value_span(doc: &str, needle: &str) -> Option<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            match c {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else {
            match c {
                b'"' => {
                    if depth == 1 && doc[i..].starts_with(needle) {
                        // Found the key: skip to the colon, then the value.
                        let mut j = i + needle.len();
                        while j < bytes.len() && bytes[j] != b':' {
                            j += 1;
                        }
                        j += 1;
                        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                            j += 1;
                        }
                        return Some((j, value_end(doc, j)));
                    }
                    in_str = true;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// End (exclusive) of the JSON value starting at `start`.
fn value_end(doc: &str, start: usize) -> usize {
    let bytes = doc.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut i = start;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            match c {
                b'\\' => i += 1,
                b'"' => {
                    in_str = false;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        } else {
            match c {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                    if depth < 0 {
                        return i; // end of enclosing object
                    }
                }
                b',' if depth == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linda_tuple::pat;

    #[test]
    fn helpers_produce_valid_workloads() {
        let mut r = rng(1);
        let t = int_tuple("t", 3, &mut r);
        assert_eq!(t.arity(), 4);
        let p = payload_tuple("p", 100);
        assert_eq!(p[1].as_str().unwrap().len(), 100);
        assert_eq!(null_ags().op_count(), 0);
        assert_eq!(out_ags(2).op_count(), 1);
        assert_eq!(in_out_ags(3, 2).op_count(), 2);
    }

    #[test]
    fn set_json_key_inserts_replaces_and_preserves() {
        let doc = set_json_key("{\n}\n", "a", "[1, 2]");
        assert_eq!(doc, "{\n  \"a\": [1, 2]\n}\n");
        let doc = set_json_key(&doc, "b", "{\"x\": \"y,z}\"}");
        assert!(doc.contains("\"a\": [1, 2]"));
        assert!(doc.contains("\"b\": {\"x\": \"y,z}\"}"));
        // Replacing `a` keeps `b` (with its brace-bearing string) intact.
        let doc = set_json_key(&doc, "a", "3.5");
        assert!(doc.contains("\"a\": 3.5"), "{doc}");
        assert!(doc.contains("\"b\": {\"x\": \"y,z}\"}"), "{doc}");
        // Replacing a nested-object value by key at depth 1 only.
        let doc = set_json_key(&doc, "b", "7");
        assert!(doc.contains("\"b\": 7"), "{doc}");
        assert!(doc.contains("\"a\": 3.5"), "{doc}");
    }

    #[test]
    fn seeded_kernel_executes_in_out() {
        let (mut k, mut seq) = seeded_kernel(|k, seq| {
            apply_request(k, seq, &Request::Ags(out_ags(2)));
        });
        let enc = encoded(&in_out_ags(2, 2));
        for _ in 0..10 {
            apply_encoded(&mut k, &mut seq, &enc);
        }
        assert_eq!(k.stable_len(TsId(0)), Some(1));
        assert!(k
            .snapshot(TsId(0))
            .unwrap()
            .iter()
            .all(|t| pat!("t", ?int, ?int).matches(t)));
    }
}
