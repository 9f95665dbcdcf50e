//! Tree construction knobs (the paper's ablation axes).

use uncat_core::Divergence;

/// How an overfull node is split (paper §3.2, "Split()").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SplitStrategy {
    /// Pick the two distributionally farthest entries as seeds and assign
    /// every other entry to the closer seed.
    TopDown,
    /// Agglomerative: start with singleton clusters and repeatedly merge
    /// the closest pair until two clusters remain. The paper's Figure 10
    /// finds this superior (top-down suffers from outlier seeds).
    #[default]
    BottomUp,
}

impl SplitStrategy {
    /// Display name used in figure output.
    pub fn name(self) -> &'static str {
        match self {
            SplitStrategy::TopDown => "top-down",
            SplitStrategy::BottomUp => "bottom-up",
        }
    }
}

/// Lossy boundary compression (paper §3.2, "Compression techniques").
///
/// Both schemes may only *over*-estimate boundary probabilities, preserving
/// the pruning property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// Store boundaries exactly (one f32 per non-zero category).
    #[default]
    None,
    /// Discretized over-estimation: round each probability *up* to the next
    /// multiple of `1/2^bits` and store the `bits`-wide code.
    Discretized {
        /// Code width in bits (1..=8).
        bits: u8,
    },
    /// Set-signature compression: a fixed mapping `f : D → C` with
    /// `|C| = width`; the boundary stores, per compressed bucket, the max
    /// probability over the preimage.
    Signature {
        /// Compressed domain cardinality `|C|`.
        width: u16,
    },
}

impl Compression {
    /// Display name used in figure output.
    pub fn name(self) -> String {
        match self {
            Compression::None => "none".to_owned(),
            Compression::Discretized { bits } => format!("discretized({bits}b)"),
            Compression::Signature { width } => format!("signature({width})"),
        }
    }
}

/// Full PDR-tree configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdrConfig {
    /// Distributional divergence used for clustering decisions (insertion
    /// tie-breaks and split seeding/merging). KL is the paper's winner.
    pub divergence: Divergence,
    /// Split algorithm.
    pub split: SplitStrategy,
    /// Boundary compression.
    pub compression: Compression,
    /// Balance cap for splits: no side may receive more than
    /// `balance_num/balance_den` of the entries (paper: 3/4).
    pub balance_num: usize,
    /// See [`PdrConfig::balance_num`].
    pub balance_den: usize,
}

impl Default for PdrConfig {
    fn default() -> Self {
        PdrConfig {
            divergence: Divergence::Kl,
            split: SplitStrategy::BottomUp,
            compression: Compression::None,
            balance_num: 3,
            balance_den: 4,
        }
    }
}

impl PdrConfig {
    /// Maximum entries one side of a split may receive, for `n` total.
    pub fn balance_cap(&self, n: usize) -> usize {
        // ceil is deliberate: a cap below 1/2 would make splits impossible.
        (n * self.balance_num).div_ceil(self.balance_den)
    }

    /// Validate the configuration (degenerate caps and widths).
    pub fn validate(&self) -> Result<(), String> {
        if self.balance_num * 2 < self.balance_den {
            return Err("balance cap below 1/2 makes splits impossible".into());
        }
        if self.balance_num > self.balance_den {
            return Err("balance cap above 1 is meaningless".into());
        }
        if let Compression::Discretized { bits } = self.compression {
            if !(1..=8).contains(&bits) {
                return Err("discretization width must be 1..=8 bits".into());
            }
        }
        if let Compression::Signature { width } = self.compression {
            if width == 0 {
                return Err("signature width must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PdrConfig::default();
        assert_eq!(c.divergence, Divergence::Kl);
        assert_eq!(c.split, SplitStrategy::BottomUp);
        assert_eq!(c.compression, Compression::None);
        assert_eq!(c.balance_cap(100), 75);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn balance_cap_rounds_up_on_small_nodes() {
        let c = PdrConfig::default();
        assert_eq!(c.balance_cap(2), 2);
        assert_eq!(c.balance_cap(3), 3);
        assert_eq!(c.balance_cap(4), 3);
        assert_eq!(c.balance_cap(5), 4);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let c = PdrConfig {
            balance_num: 1,
            balance_den: 3,
            ..PdrConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PdrConfig {
            compression: Compression::Discretized { bits: 0 },
            ..PdrConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PdrConfig {
            compression: Compression::Discretized { bits: 9 },
            ..PdrConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PdrConfig {
            compression: Compression::Signature { width: 0 },
            ..PdrConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn names_for_reporting() {
        assert_eq!(SplitStrategy::TopDown.name(), "top-down");
        assert_eq!(
            Compression::Discretized { bits: 2 }.name(),
            "discretized(2b)"
        );
        assert_eq!(Compression::Signature { width: 16 }.name(), "signature(16)");
    }
}
