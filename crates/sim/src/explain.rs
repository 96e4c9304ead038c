//! Bottleneck attribution: which resource binds, and where the knee is.
//!
//! The paper's argument (§4) is that each coupling architecture is
//! limited by whichever shared resource saturates first — CPU, GEM
//! servers, the lock engine, the network, a disk group, or the log —
//! and that response time decomposes into the queue waits that
//! resource inflicts. This module turns the numbers a [`RunReport`]
//! already carries into that argument in structured form:
//!
//! * [`attribute`] ranks the per-resource utilizations of one run and
//!   pairs them with the report's response-time decomposition — the
//!   *binding constraint* is simply the most-utilized resource, the
//!   *next constraint* the runner-up (what would bind after fixing the
//!   first).
//! * [`find_knee`] walks a curve along the node axis and reports the
//!   first point whose binding utilization crosses a saturation
//!   threshold, corroborated by the response-time slope (a real knee
//!   at least doubles response time across the crossing interval).
//! * [`explain_figure`] applies both to a whole figure and renders a
//!   deterministic table ([`FigureExplain::render`]) plus a JSON
//!   sidecar ([`sidecar_json`]) for `repro --explain`.
//!
//! Everything here is a pure function of `RunReport` fields that are
//! themselves bit-identical across `--jobs`, so the rendered table and
//! sidecar are byte-identical too (pinned by `sim/tests/explain.rs`). The attribution is deliberately generic —
//! it reads only the per-resource statistics every protocol reports,
//! so it applies unchanged to any coupling mode.

use crate::experiments::Series;
use crate::RunReport;

/// Default saturation threshold for knee detection: a binding
/// utilization at or above 95% marks the knee point.
pub const SATURATION_THRESHOLD: f64 = 0.95;

/// One resource's utilization in a run, named for humans
/// (`"cpu"`, `"gem"`, `"lock-engine"`, `"network"`, `"disk:<group>"`,
/// `"log"`).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUtil {
    /// Resource name.
    pub name: String,
    /// Utilization in `[0, 1]` (busy share of the measurement window).
    pub utilization: f64,
}

/// The response-time decomposition of a run, in milliseconds per
/// committed transaction. The components sum to (approximately) the
/// mean response time; [`WaitBreakdown::share`] converts one to its
/// share of the total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitBreakdown {
    /// Mean response time.
    pub mean_response_ms: f64,
    /// Input-queue (MPL) wait.
    pub input_ms: f64,
    /// Lock wait.
    pub lock_ms: f64,
    /// I/O wait.
    pub io_ms: f64,
    /// CPU queueing wait.
    pub cpu_wait_ms: f64,
    /// CPU service.
    pub cpu_service_ms: f64,
}

impl WaitBreakdown {
    /// `component_ms` as a fraction of the mean response time.
    pub fn share(&self, component_ms: f64) -> f64 {
        component_ms / self.mean_response_ms.max(1e-9)
    }
}

/// The full attribution of one run: every resource's utilization in a
/// fixed order, the index of the binding constraint (argmax; ties go
/// to the earlier resource), the runner-up, and the wait breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Per-resource utilizations: cpu (hottest node), gem,
    /// lock-engine, network, one entry per disk group, log (hottest
    /// log disk) — always in this order, so renderings are stable.
    pub resources: Vec<ResourceUtil>,
    /// Index of the binding constraint in `resources`.
    pub binding: usize,
    /// Index of the next constraint (the runner-up), if a second
    /// resource exists.
    pub next: Option<usize>,
    /// Response-time decomposition of the same run.
    pub waits: WaitBreakdown,
}

impl Attribution {
    /// The binding constraint.
    pub fn binding(&self) -> &ResourceUtil {
        &self.resources[self.binding]
    }

    /// The next constraint (what would bind after fixing the first).
    pub fn next(&self) -> Option<&ResourceUtil> {
        self.next.map(|i| &self.resources[i])
    }
}

/// Attributes one run: ranks its per-resource utilizations and pairs
/// them with its response-time decomposition. Pure — equal reports
/// yield equal attributions.
pub fn attribute(r: &RunReport) -> Attribution {
    let mut resources = vec![
        // The *hottest* node's CPU, not the mean: the first node to
        // saturate gates the system even while the average looks safe.
        ResourceUtil {
            name: "cpu".into(),
            utilization: r.cpu_utilization_max,
        },
        ResourceUtil {
            name: "gem".into(),
            utilization: r.gem_utilization,
        },
        ResourceUtil {
            name: "lock-engine".into(),
            utilization: r.lock_engine_utilization,
        },
        ResourceUtil {
            name: "network".into(),
            utilization: r.network_utilization,
        },
    ];
    for (name, util) in &r.disk_utilizations {
        resources.push(ResourceUtil {
            name: format!("disk:{name}"),
            utilization: *util,
        });
    }
    resources.push(ResourceUtil {
        name: "log".into(),
        utilization: r.log_utilization_max,
    });

    let argmax = |skip: Option<usize>| -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, res) in resources.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            match best {
                Some(b) if resources[b].utilization >= res.utilization => {}
                _ => best = Some(i),
            }
        }
        best
    };
    let binding = argmax(None).expect("resource list is never empty");
    let next = argmax(Some(binding));

    Attribution {
        resources,
        binding,
        next,
        waits: WaitBreakdown {
            mean_response_ms: r.mean_response_ms,
            input_ms: r.input_wait_ms,
            lock_ms: r.lock_wait_ms,
            io_ms: r.io_wait_ms,
            cpu_wait_ms: r.cpu_wait_ms,
            cpu_service_ms: r.cpu_service_ms,
        },
    }
}

/// A detected knee on one curve's node axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// The last probed node count whose binding utilization stayed
    /// below the threshold; `None` when the very first point was
    /// already saturated.
    pub below: Option<u16>,
    /// The first node count at or above the threshold.
    pub at: u16,
    /// The resource that binds at the knee.
    pub resource: String,
    /// Its utilization at the knee point.
    pub utilization: f64,
    /// `resp(at) / resp(below)` — the response-time slope across the
    /// crossing interval (1.0 when `below` is `None`).
    pub resp_ratio: f64,
    /// True when the response-time curve corroborates the utilization
    /// crossing (at least a doubling across the interval).
    pub corroborated: bool,
}

/// Scans `points` (ordered by node count) for the first one whose
/// binding utilization reaches `threshold`. Returns `None` when the
/// curve never saturates within the probed axis.
pub fn find_knee(points: &[(u16, &RunReport)], threshold: f64) -> Option<Knee> {
    for (i, (n, r)) in points.iter().enumerate() {
        let a = attribute(r);
        let util = a.binding().utilization;
        if util >= threshold {
            let below = i.checked_sub(1).map(|j| points[j].0);
            let resp_ratio = match i.checked_sub(1) {
                Some(j) => r.mean_response_ms / points[j].1.mean_response_ms.max(1e-9),
                None => 1.0,
            };
            return Some(Knee {
                below,
                at: *n,
                resource: a.binding().name.clone(),
                utilization: util,
                resp_ratio,
                corroborated: below.is_some() && resp_ratio >= 2.0,
            });
        }
    }
    None
}

/// One curve point's attribution within a figure.
#[derive(Debug, Clone)]
pub struct PointExplain {
    /// Curve label.
    pub curve: String,
    /// Node count.
    pub nodes: u16,
    /// The point's attribution.
    pub attribution: Attribution,
}

/// One curve's knee verdict within a figure.
#[derive(Debug, Clone)]
pub struct CurveKnee {
    /// Curve label.
    pub curve: String,
    /// First node count probed.
    pub lo: u16,
    /// Last node count probed.
    pub hi: u16,
    /// The knee, when the curve saturates within `[lo, hi]`.
    pub knee: Option<Knee>,
    /// The curve's peak binding constraint: `(resource, utilization,
    /// nodes)` of the point with the highest binding utilization —
    /// what the "no knee" verdict is measured against.
    pub peak: (String, f64, u16),
}

impl CurveKnee {
    /// The one-line human verdict for this curve, shared by
    /// `--explain` ([`FigureExplain::render`]) and the `--knee`
    /// bisection driver so both speak the same language.
    pub fn verdict(&self) -> String {
        match &self.knee {
            None => format!(
                "{}: no knee in [{}, {}] (peak binding {} {:.1}% at n={})",
                self.curve,
                self.lo,
                self.hi,
                self.peak.0,
                self.peak.1 * 100.0,
                self.peak.2
            ),
            Some(knee) => match knee.below {
                Some(below) => format!(
                    "{}: knee between n={} and n={}: {} reaches {:.1}% (resp x{:.2}{})",
                    self.curve,
                    below,
                    knee.at,
                    knee.resource,
                    knee.utilization * 100.0,
                    knee.resp_ratio,
                    if knee.corroborated {
                        ", corroborated"
                    } else {
                        ", not corroborated"
                    }
                ),
                None => format!(
                    "{}: saturated from the first probe (n={}): {} at {:.1}%",
                    self.curve,
                    knee.at,
                    knee.resource,
                    knee.utilization * 100.0
                ),
            },
        }
    }
}

/// A whole figure, attributed: per-point binding constraints plus
/// per-curve knee verdicts.
#[derive(Debug, Clone)]
pub struct FigureExplain {
    /// Figure key (e.g. `"scale-smoke"`).
    pub figure: String,
    /// Saturation threshold the knee scan used.
    pub threshold: f64,
    /// Every curve point in input order.
    pub points: Vec<PointExplain>,
    /// One verdict per curve, in input order.
    pub knees: Vec<CurveKnee>,
}

/// Attributes every point of `series` and scans each curve for a knee
/// at `threshold`. Curves without points are skipped.
pub fn explain_figure(figure: &str, series: &[Series], threshold: f64) -> FigureExplain {
    let mut points = Vec::new();
    let mut knees = Vec::new();
    for s in series {
        if s.points.is_empty() {
            continue;
        }
        let refs: Vec<(u16, &RunReport)> = s.points.iter().map(|(n, r)| (*n, r)).collect();
        let mut peak: Option<(String, f64, u16)> = None;
        for (n, r) in &refs {
            let attribution = attribute(r);
            let b = attribution.binding();
            if peak.as_ref().is_none_or(|(_, u, _)| b.utilization > *u) {
                peak = Some((b.name.clone(), b.utilization, *n));
            }
            points.push(PointExplain {
                curve: s.label.clone(),
                nodes: *n,
                attribution,
            });
        }
        knees.push(CurveKnee {
            curve: s.label.clone(),
            lo: refs[0].0,
            hi: refs[refs.len() - 1].0,
            knee: find_knee(&refs, threshold),
            peak: peak.expect("curve has at least one point"),
        });
    }
    FigureExplain {
        figure: figure.to_string(),
        threshold,
        points,
        knees,
    }
}

impl FigureExplain {
    /// Renders the figure's attribution as a fixed-width text table
    /// plus one knee line per curve. Deterministic: a pure function of
    /// the underlying reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== explain [{}] (saturation threshold {:.0}%) ===\n",
            self.figure,
            self.threshold * 100.0
        ));
        out.push_str(&format!(
            "{:<26}{:>6}  {:<14}{:>6}  {:<14}{:>6}{:>10}{:>7}{:>7}{:>7}{:>7}{:>7}\n",
            "curve",
            "nodes",
            "binding",
            "util%",
            "next",
            "util%",
            "resp ms",
            "input%",
            "lock%",
            "io%",
            "cpuW%",
            "cpuS%"
        ));
        for p in &self.points {
            let a = &p.attribution;
            let b = a.binding();
            let (next_name, next_util) = match a.next() {
                Some(n) => (n.name.as_str(), n.utilization),
                None => ("-", 0.0),
            };
            let w = &a.waits;
            out.push_str(&format!(
                "{:<26}{:>6}  {:<14}{:>6.1}  {:<14}{:>6.1}{:>10.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}\n",
                p.curve,
                p.nodes,
                b.name,
                b.utilization * 100.0,
                next_name,
                next_util * 100.0,
                w.mean_response_ms,
                w.share(w.input_ms) * 100.0,
                w.share(w.lock_ms) * 100.0,
                w.share(w.io_ms) * 100.0,
                w.share(w.cpu_wait_ms) * 100.0,
                w.share(w.cpu_service_ms) * 100.0,
            ));
        }
        for k in &self.knees {
            out.push_str(&k.verdict());
            out.push('\n');
        }
        out
    }
}

/// Renders a set of figure explanations as the `--explain` JSON
/// sidecar (schema `dbshare-explain/1`). Hand-built and dependency
/// free; floats use Rust's shortest-round-trip formatting, so the
/// output is byte-identical whenever the inputs are bit-identical.
pub fn sidecar_json(figures: &[FigureExplain]) -> String {
    let mut out = String::from("{\"schema\":\"dbshare-explain/1\",\"figures\":[");
    for (fi, fig) in figures.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"figure\":{},\"threshold\":{},\"points\":[",
            json_str(&fig.figure),
            json_num(fig.threshold)
        ));
        for (pi, p) in fig.points.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            let a = &p.attribution;
            let b = a.binding();
            out.push_str(&format!(
                "{{\"curve\":{},\"nodes\":{},\"binding\":{},\"binding_utilization\":{}",
                json_str(&p.curve),
                p.nodes,
                json_str(&b.name),
                json_num(b.utilization)
            ));
            match a.next() {
                Some(n) => out.push_str(&format!(
                    ",\"next\":{},\"next_utilization\":{}",
                    json_str(&n.name),
                    json_num(n.utilization)
                )),
                None => out.push_str(",\"next\":null,\"next_utilization\":null"),
            }
            let w = &a.waits;
            out.push_str(&format!(
                ",\"mean_response_ms\":{},\"waits_ms\":{{\"input\":{},\"lock\":{},\"io\":{},\"cpu_wait\":{},\"cpu_service\":{}}}",
                json_num(w.mean_response_ms),
                json_num(w.input_ms),
                json_num(w.lock_ms),
                json_num(w.io_ms),
                json_num(w.cpu_wait_ms),
                json_num(w.cpu_service_ms)
            ));
            out.push_str(",\"utilizations\":[");
            for (ri, res) in a.resources.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "[{},{}]",
                    json_str(&res.name),
                    json_num(res.utilization)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"knees\":[");
        for (ki, k) in fig.knees.iter().enumerate() {
            if ki > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"curve\":{},\"lo\":{},\"hi\":{},\"peak\":{{\"resource\":{},\"utilization\":{},\"nodes\":{}}},\"knee\":",
                json_str(&k.curve),
                k.lo,
                k.hi,
                json_str(&k.peak.0),
                json_num(k.peak.1),
                k.peak.2
            ));
            match &k.knee {
                None => out.push_str("null"),
                Some(knee) => {
                    out.push_str(&format!(
                        "{{\"below\":{},\"at\":{},\"resource\":{},\"utilization\":{},\"resp_ratio\":{},\"corroborated\":{}}}",
                        knee.below.map_or("null".to_string(), |n| n.to_string()),
                        knee.at,
                        json_str(&knee.resource),
                        json_num(knee.utilization),
                        json_num(knee.resp_ratio),
                        knee.corroborated
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// A finite float as a JSON number (`null` otherwise).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cpu_max: f64, net: f64, resp: f64) -> RunReport {
        RunReport {
            cpu_utilization_max: cpu_max,
            network_utilization: net,
            mean_response_ms: resp,
            input_wait_ms: resp * 0.3,
            lock_wait_ms: resp * 0.6,
            io_wait_ms: resp * 0.05,
            cpu_wait_ms: resp * 0.01,
            cpu_service_ms: resp * 0.04,
            disk_utilizations: vec![("ACCOUNT".into(), 0.2)],
            log_utilization_max: 0.1,
            ..RunReport::default()
        }
    }

    #[test]
    fn binding_is_argmax_next_is_runner_up() {
        let a = attribute(&report(0.64, 0.71, 800.0));
        assert_eq!(a.binding().name, "network");
        assert_eq!(a.next().unwrap().name, "cpu");
        // Fixed resource order: cpu, gem, lock-engine, network,
        // disk:<group>..., log.
        let names: Vec<&str> = a.resources.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "cpu",
                "gem",
                "lock-engine",
                "network",
                "disk:ACCOUNT",
                "log"
            ]
        );
    }

    #[test]
    fn ties_go_to_the_earlier_resource() {
        let a = attribute(&report(0.8, 0.8, 100.0));
        assert_eq!(a.binding().name, "cpu");
        assert_eq!(a.next().unwrap().name, "network");
    }

    #[test]
    fn knee_detects_first_threshold_crossing() {
        let r50 = report(0.3, 0.35, 1_000.0);
        let r100 = report(0.5, 0.69, 6_600.0);
        let r200 = report(0.6, 0.999, 88_700.0);
        let points = vec![(50u16, &r50), (100u16, &r100), (200u16, &r200)];
        let knee = find_knee(&points, SATURATION_THRESHOLD).expect("saturates at 200");
        assert_eq!(knee.below, Some(100));
        assert_eq!(knee.at, 200);
        assert_eq!(knee.resource, "network");
        assert!(knee.corroborated, "resp 6.6s -> 88.7s is a real knee");
        // Below-threshold curves have no knee.
        let flat = vec![(50u16, &r50), (100u16, &r100)];
        assert!(find_knee(&flat, SATURATION_THRESHOLD).is_none());
    }

    #[test]
    fn saturated_first_probe_has_no_below_point() {
        let hot = report(0.2, 0.99, 5_000.0);
        let points = vec![(50u16, &hot)];
        let knee = find_knee(&points, SATURATION_THRESHOLD).unwrap();
        assert_eq!(knee.below, None);
        assert_eq!(knee.resp_ratio, 1.0);
        assert!(!knee.corroborated);
    }

    #[test]
    fn sidecar_is_valid_shape_and_render_is_stable() {
        let series = vec![Series {
            label: "PCL/NOFORCE".into(),
            points: vec![(16, report(0.64, 0.71, 800.0))],
        }];
        let fig = explain_figure("scale-smoke", &series, SATURATION_THRESHOLD);
        let text = fig.render();
        assert!(text.contains("binding"));
        assert!(text.contains("network"));
        assert!(text.contains("no knee in [16, 16]"));
        let json = sidecar_json(std::slice::from_ref(&fig));
        assert_eq!(json, sidecar_json(&[fig]));
        assert!(json.starts_with("{\"schema\":\"dbshare-explain/1\""));
        assert!(json.contains("\"binding\":\"network\""));
        assert!(json.contains("\"knee\":null"));
    }
}
