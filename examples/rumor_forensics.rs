//! Rumor forensics: locating the originators after the fact.
//!
//! ```text
//! cargo run --release --example rumor_forensics
//! ```
//!
//! The paper's conclusion points at "the problem of locating rumor
//! originators" as an open direction. This walkthrough simulates an
//! outbreak, hands the responder only the infection snapshot, and
//! uses the distance-centrality ranker (`lcrb::source`) to identify
//! the culprit — then shows why finding the source matters by
//! re-running containment with the inferred seed.

#![allow(clippy::expect_used, clippy::indexing_slicing, reason = "example code")]
use lcrb::source::rank_sources;
use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = hep_like(&DatasetConfig::new(0.08, 33));
    println!("network: {}", ds.summary());

    // The outbreak: one originator, caught after 3 broadcast hops.
    let mut rng = SmallRng::seed_from_u64(12);
    let instance = RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        1,
        &mut rng,
    )?;
    let true_source = instance.rumor_seeds()[0];
    let outbreak = lcrb_repro::diffusion::DoamModel::new(3)
        .run_deterministic(instance.graph(), &instance.seed_sets(vec![])?);
    let snapshot = outbreak.infected_nodes();
    println!(
        "observed snapshot: {} infected nodes after 3 hops (true source hidden: node {true_source})",
        snapshot.len()
    );

    // Forensics: rank the suspected community's members by how well
    // they explain the snapshot.
    let suspects = instance.rumor_community_members();
    let ranking = rank_sources(instance.graph(), &snapshot, &suspects);
    let best = ranking.best().expect("candidates were supplied");
    let rank_of_truth = ranking
        .rank_of(true_source)
        .expect("the true source is in the suspected community");
    println!(
        "ranker's verdict: node {best} (true source actually ranked #{} of {})",
        rank_of_truth + 1,
        suspects.len()
    );
    for (i, score) in ranking.ranked.iter().take(5).enumerate() {
        println!(
            "  #{:<2} node {:>5}  unreachable {}  eccentricity {}  total distance {}",
            i + 1,
            score.candidate.to_string(),
            score.unreachable,
            score.eccentricity,
            score.total_distance
        );
    }

    // Why it matters: containment planned against the *inferred*
    // source still blocks the real outbreak when the inference is
    // close (bridge ends barely move for nearby sources).
    let inferred_instance = RumorBlockingInstance::new(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        vec![best],
    )?;
    let plan = scbg(&inferred_instance, &ScbgConfig::default());
    let replay = DoamModel::default().run_deterministic(
        instance.graph(),
        &instance.seed_sets(
            plan.protectors
                .iter()
                .copied()
                .filter(|p| *p != true_source)
                .collect(),
        )?,
    );
    let true_bridges = find_bridge_ends(&instance, BridgeEndRule::WithinCommunity);
    let saved = true_bridges
        .nodes
        .iter()
        .filter(|&&v| !replay.status(v).is_infected())
        .count();
    println!(
        "containment planned from the inferred source protects {saved}/{} of the real bridge ends",
        true_bridges.len()
    );
    Ok(())
}
