//! `BenchCli::init_pool` reports the lane count the process-wide pool
//! has, not the one it was asked for. An integration test runs in its
//! own process, so nothing else has sized the global pool first.

use nas_bench::BenchCli;

#[test]
fn zero_threads_reports_the_one_lane_the_pool_has() {
    let lanes = BenchCli::from_args(["--threads", "0"]).init_pool();
    assert_eq!(lanes, 1);
    assert_eq!(lanes, nas_par::global().threads());
}
