//! The operating point, decided by verdict: on the tuning world and the
//! held-out one, the default configuration (10 context samples) answers
//! at least 150 and 153 of the 200 questions, the paper configuration
//! (k = 29) exactly its recorded 144 and 147, and the default wins the
//! exact McNemar test pooled over both worlds at p < 0.05.

use dio_bench::{paper_config, Experiment};
use dio_benchmark::eval::compare;
use dio_benchmark::evaluate;
use dio_copilot::CopilotConfig;

#[test]
fn the_default_beats_the_paper_configuration_on_both_worlds() {
    let mut pooled: [Vec<_>; 2] = Default::default();
    for ((world, exp), (default_floor, paper_score)) in
        Experiment::worlds().zip([(150, 144), (153, 147)])
    {
        let mut scores = Vec::new();
        for (config, pool) in [CopilotConfig::default(), paper_config()]
            .into_iter()
            .zip(&mut pooled)
        {
            let mut dio = exp.copilot_with_config(Experiment::gpt4(), config);
            let report = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
            scores.push(report.correct);
            pool.extend(report.outcomes);
        }
        assert!(
            scores[0] >= default_floor,
            "{world}: default {} < {default_floor}",
            scores[0]
        );
        assert_eq!(scores[1], paper_score, "{world}: paper configuration");
    }
    let (only_default, only_paper, p) = compare(&pooled[0], &pooled[1]);
    assert!(
        only_default > only_paper && p < 0.05,
        "pooled: {only_default} right only at the default, {only_paper} only as the paper row, p = {p}"
    );
}
