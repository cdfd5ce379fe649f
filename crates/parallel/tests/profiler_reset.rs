//! `Profiler::reset` clears the process-global region table.
//!
//! This lives in its own test binary — its own process — because a reset
//! wipes every region recorded so far, including those of tests running
//! concurrently in the same process. Keep it the only test here.

use exastro_parallel::Profiler;

#[test]
fn reset_clears_the_table() {
    {
        let _r = Profiler::region("reset_test_step");
        Profiler::record_zones(3);
    }
    Profiler::record_zones(5);
    assert_eq!(Profiler::get("reset_test_step").unwrap().zones, 3);
    assert!(Profiler::get("(top)").is_some());

    Profiler::reset();
    assert!(Profiler::get("reset_test_step").is_none());
    assert!(Profiler::get("(top)").is_none());
    assert!(Profiler::snapshot().is_empty());
}
