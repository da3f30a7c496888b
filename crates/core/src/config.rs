//! Generation-pipeline configuration: the tuning parameters ϕ of Table 1.

use dbpal_analyze::AnalyzerPolicy;
use dbpal_util::{ParStrategy, Rng};

/// All parameters of the data generation procedure (paper Table 1),
/// split into *data instantiation* and *data augmentation* groups.
///
/// The defaults are the "empirically determined" values used throughout
/// the paper's evaluation (§3.2.1); [`GenerationConfig::sample`] draws a
/// random candidate for the optimization procedure of §3.3.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationConfig {
    // --- Data instantiation ---
    /// Maximum number of instances created for a NL-SQL template pair
    /// using slot-filling dictionaries (`size_slotfills`).
    pub size_slot_fills: usize,
    /// Maximum number of tables supported in join queries (`size_tables`).
    pub size_tables: usize,
    /// Probability of generating a GROUP BY version of a generated query
    /// pair (`groupby_p`).
    pub group_by_p: f64,
    /// Multiplier on the number of join-query instances (`join_boost`).
    pub join_boost: f64,
    /// Multiplier on the number of aggregation instances (`agg_boost`).
    pub agg_boost: f64,
    /// Multiplier on the number of nested-query instances (`nest_boost`).
    pub nest_boost: f64,

    // --- Data augmentation ---
    /// Maximum size (in words) of subclauses replaced by a paraphrase
    /// (`size_para`).
    pub size_para: usize,
    /// Maximum number of paraphrases used to vary a subclause
    /// (`num_para`).
    pub num_para: usize,
    /// Maximum number of word-dropped duplicates per input NL query
    /// (`num_missing`).
    pub num_missing: usize,
    /// Probability of dropping words from a generated query at all
    /// (`rand_drop_p`).
    pub rand_drop_p: f64,

    // --- Implementation knobs (documented in DESIGN.md) ---
    /// Quality floor for paraphrases drawn from the store; lowering it
    /// admits noisier paraphrases (the §3.2.1 noise trade-off).
    pub paraphrase_min_quality: f32,
    /// Restrict word dropout to droppable POS classes (the §3.2.3
    /// future-work extension; off reproduces the paper's base system).
    pub pos_gated_dropout: bool,
    /// Only accept paraphrases whose part of speech matches the replaced
    /// phrase (the other §3.2.3 extension: "use them in the automatic
    /// paraphrasing to identify better paraphrases"). Off by default.
    pub pos_aware_paraphrasing: bool,
    /// What the pipeline's static-analysis stage does with findings:
    /// skip the stage (`Off`), count findings but keep every pair
    /// (`Warn`), or drop pairs with error-severity diagnostics
    /// (`Reject`, the default). Counts surface in the `PipelineReport`.
    pub analyzer_policy: AnalyzerPolicy,
    /// RNG seed for reproducible corpus generation.
    pub seed: u64,
    /// Worker threads for the parallel pipeline stages (template
    /// instantiation, augmentation, lemmatization). `0` means "use all
    /// available parallelism". The corpus is byte-identical for a given
    /// `seed` regardless of this value — every work unit draws from its
    /// own [`dbpal_util::stream_seed`]-derived stream and shards merge
    /// in input order — so `threads` only changes wall-clock time.
    pub threads: usize,
    /// Read by no workspace code: every stage fans out on
    /// [`WorkerPool::global`](dbpal_util::WorkerPool::global). The
    /// zero-sized field stays for the `corpus_stream` benchmark's replay
    /// (see [`ParStrategy`]).
    pub par: ParStrategy,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig {
            size_slot_fills: 40,
            size_tables: 3,
            group_by_p: 0.3,
            join_boost: 1.5,
            agg_boost: 1.5,
            nest_boost: 2.0,
            size_para: 2,
            num_para: 3,
            num_missing: 2,
            rand_drop_p: 0.3,
            paraphrase_min_quality: 0.5,
            pos_gated_dropout: false,
            pos_aware_paraphrasing: false,
            analyzer_policy: AnalyzerPolicy::default(),
            seed: 0x0DBA1,
            threads: 0,
            par: ParStrategy,
        }
    }
}

impl GenerationConfig {
    /// Draw a random candidate configuration for the random-search
    /// optimization procedure (§3.3). Ranges bracket the defaults.
    pub fn sample(rng: &mut Rng) -> Self {
        GenerationConfig {
            size_slot_fills: rng.gen_range(5..=80),
            size_tables: rng.gen_range(2..=4),
            group_by_p: rng.gen_range(0.05..=0.6),
            join_boost: rng.gen_range(0.5..=3.0),
            agg_boost: rng.gen_range(0.5..=3.0),
            nest_boost: rng.gen_range(0.5..=3.0),
            size_para: rng.gen_range(1..=3),
            num_para: rng.gen_range(0..=6),
            num_missing: rng.gen_range(0..=4),
            rand_drop_p: rng.gen_range(0.0..=0.7),
            paraphrase_min_quality: rng.gen_range(0.0..=0.9),
            pos_gated_dropout: rng.gen_bool(0.5),
            pos_aware_paraphrasing: rng.gen_bool(0.5),
            // Not a generation parameter: the gate decides what ships,
            // not what is synthesized, so the search space excludes it.
            analyzer_policy: AnalyzerPolicy::default(),
            seed: rng.next_u64(),
            // Not a generation parameter: threads never changes the
            // corpus, so the search space excludes it.
            threads: 0,
            par: ParStrategy,
        }
    }

    /// The effective worker count: `threads`, or all available
    /// parallelism when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            dbpal_util::auto_threads()
        } else {
            self.threads
        }
    }

    /// A scaled-down copy for fast tests and smoke runs.
    pub fn small() -> Self {
        GenerationConfig {
            size_slot_fills: 6,
            num_para: 1,
            num_missing: 1,
            ..Default::default()
        }
    }

    /// Validate parameter sanity; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_slot_fills == 0 {
            return Err("size_slot_fills must be positive".into());
        }
        if self.size_tables < 2 {
            return Err("size_tables must be at least 2 (joins need two tables)".into());
        }
        if !(0.0..=1.0).contains(&self.group_by_p) {
            return Err("group_by_p must be a probability".into());
        }
        if !(0.0..=1.0).contains(&self.rand_drop_p) {
            return Err("rand_drop_p must be a probability".into());
        }
        for (name, v) in [
            ("join_boost", self.join_boost),
            ("agg_boost", self.agg_boost),
            ("nest_boost", self.nest_boost),
        ] {
            if v < 0.0 || !v.is_finite() {
                return Err(format!("{name} must be a non-negative finite number"));
            }
        }
        if !(0.0..=1.0).contains(&self.paraphrase_min_quality) {
            return Err("paraphrase_min_quality must be in [0, 1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(GenerationConfig::default().validate(), Ok(()));
    }

    #[test]
    fn small_is_valid() {
        assert_eq!(GenerationConfig::small().validate(), Ok(()));
    }

    #[test]
    fn samples_are_valid() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..200 {
            let c = GenerationConfig::sample(&mut rng);
            assert_eq!(c.validate(), Ok(()), "invalid sample: {c:?}");
        }
    }

    #[test]
    fn sampling_varies() {
        let mut rng = Rng::seed_from_u64(7);
        let a = GenerationConfig::sample(&mut rng);
        let b = GenerationConfig::sample(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let auto = GenerationConfig::default();
        assert!(auto.effective_threads() >= 1);
        let pinned = GenerationConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(pinned.effective_threads(), 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = GenerationConfig {
            size_slot_fills: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = GenerationConfig {
            group_by_p: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = GenerationConfig {
            join_boost: f64::NAN,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = GenerationConfig {
            size_tables: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
