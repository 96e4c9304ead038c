//! Golden-numbers regression tests: the optimized engine must produce
//! *bit-identical* metrics to the seed engine for pinned seeds. The
//! constants below were captured from the pre-optimization build; any
//! hot-path change (hashing, slab indexing, calendar layout) that
//! perturbs event order or arithmetic shows up here immediately.

use dbshare_model::{CouplingMode, RoutingStrategy, UpdateStrategy};
use dbshare_sim::experiments::{debit_credit_run, DebitCreditRun, RunLength};

/// One run's fingerprint: every floating-point metric as exact bits,
/// every counter as-is. Formatted as one line per field so failures
/// point at the drifted metric.
fn fingerprint(r: &dbshare_sim::RunReport) -> String {
    fn b(x: f64) -> u64 {
        x.to_bits()
    }
    format!(
        "measured={} resp={:016x} p95={:016x} norm={:016x} tput={:016x} \
         lockw={:016x} iow={:016x} cpuw={:016x} cpusvc={:016x} cpu={:016x} \
         msgs={:016x} locks={:016x} reads={:016x} writes={:016x} \
         deadlocks={} timeouts={} events={}",
        r.measured_txns,
        b(r.mean_response_ms),
        b(r.p95_response_ms),
        b(r.norm_response_ms),
        b(r.throughput_tps),
        b(r.lock_wait_ms),
        b(r.io_wait_ms),
        b(r.cpu_wait_ms),
        b(r.cpu_service_ms),
        b(r.cpu_utilization),
        b(r.messages_per_txn),
        b(r.lock_requests_per_txn),
        b(r.reads_per_txn),
        b(r.writes_per_txn),
        r.deadlock_aborts,
        r.timeout_aborts,
        r.events_processed,
    )
}

fn params(coupling: CouplingMode, update: UpdateStrategy, nodes: u16) -> DebitCreditRun {
    DebitCreditRun {
        nodes,
        coupling,
        update,
        routing: RoutingStrategy::Random,
        ..DebitCreditRun::baseline(nodes, RunLength::quick())
    }
}

fn run(coupling: CouplingMode, update: UpdateStrategy, nodes: u16) -> String {
    fingerprint(&debit_credit_run(params(coupling, update, nodes)))
}

#[test]
fn golden_gem_noforce_2_nodes() {
    let got = run(CouplingMode::GemLocking, UpdateStrategy::NoForce, 2);
    assert_eq!(
        got,
        "measured=2500 resp=4051ebc9d0333faf p95=405c4fc1db0142f6 norm=4051ebc9d0333fb1 \
         tput=4068932ef816d64c lockw=3fcf5d165efbb3cf iow=40447c577ff05a93 \
         cpuw=40178c022ca0b4ee cpusvc=403a61959635d421 cpu=3fe58edb60abb0f0 \
         msgs=3fe57a786c22680a locks=400009d495182a99 reads=3ff56d5cfaacd9e8 \
         writes=3ff001a36e2eb1c4 deadlocks=0 timeouts=0 events=71677",
        "GEM/NOFORCE metrics drifted"
    );
}

#[test]
fn golden_pcl_noforce_2_nodes() {
    let got = run(CouplingMode::Pcl, UpdateStrategy::NoForce, 2);
    assert_eq!(
        got,
        "measured=2500 resp=405485c9357c595f p95=406040bfe1975f2d norm=405485c9357c5955 \
         tput=40688b37ce66c28e lockw=401a0d29881ab36d iow=4045ab94a05ed04b \
         cpuw=4021de9927556fc4 cpusvc=403b7adf0ee4617e cpu=3fe73de472f777e7 \
         msgs=400507c84b5dcc64 locks=40000c49ba5e353f reads=3ff7a0f9096bb98c \
         writes=3ff0000000000000 deadlocks=0 timeouts=0 events=69172",
        "PCL/NOFORCE metrics drifted"
    );
}

#[test]
fn golden_pcl_force_3_nodes() {
    let got = run(CouplingMode::Pcl, UpdateStrategy::Force, 3);
    assert_eq!(
        got,
        "measured=2500 resp=406ce56923ff4680 p95=407711947bedb728 norm=406ce56923ff466c \
         tput=40727dc30ad801c9 lockw=403932c17d06929f iow=4065105b31c4241b \
         cpuw=402d56d480755b4c cpusvc=403cabf98c3ab9ba cpu=3fe8534c9616dcf9 \
         msgs=400bdd97f62b6ae8 locks=400017c1bda5119d reads=3ffca2339c0ebee0 \
         writes=400ff141205bc01a deadlocks=0 timeouts=0 events=87540",
        "PCL/FORCE metrics drifted"
    );
}
