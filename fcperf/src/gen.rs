//! The benchmark's own seeded inputs: expression trees, their text for
//! the compiler, an independent evaluator over plain `u64` words, and
//! operand words.
//!
//! Nothing here calls into the program under test, so every result
//! check compares the program against code it does not share.

use fcdram::PackedBits;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `k` distinct variable indices out of `0..n`, in random order.
    pub fn pick(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

/// Mixes a seed with a salt (one splitmix64 step).
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next()
}

/// A boolean expression over variables `v0..v{VARS-1}`.
#[derive(Debug, Clone, PartialEq)]
pub enum Tree {
    Var(usize),
    Not(Box<Tree>),
    And(Vec<Tree>),
    Or(Vec<Tree>),
    Xor(Vec<Tree>),
}

/// Variable names the generator draws from.
pub const VARS: usize = 16;

fn vars(ids: &[usize]) -> Vec<Tree> {
    ids.iter().map(|&i| Tree::Var(i)).collect()
}

fn not(t: Tree) -> Tree {
    Tree::Not(Box::new(t))
}

impl Tree {
    /// The expression in the compiler's surface syntax.
    pub fn text(&self) -> String {
        let join = |ts: &[Tree], op: &str| {
            let parts: Vec<String> = ts.iter().map(Tree::text).collect();
            format!("({})", parts.join(op))
        };
        match self {
            Tree::Var(i) => format!("v{i}"),
            Tree::Not(t) => format!("!{}", t.text()),
            Tree::And(ts) => join(ts, " & "),
            Tree::Or(ts) => join(ts, " | "),
            Tree::Xor(ts) => join(ts, " ^ "),
        }
    }

    /// Evaluates word `w` of every lane with plain bitwise operations.
    pub fn eval_word(&self, operands: &[Vec<u64>], w: usize) -> u64 {
        match self {
            Tree::Var(i) => operands[*i][w],
            Tree::Not(t) => !t.eval_word(operands, w),
            Tree::And(ts) => ts.iter().fold(!0, |a, t| a & t.eval_word(operands, w)),
            Tree::Or(ts) => ts.iter().fold(0, |a, t| a | t.eval_word(operands, w)),
            Tree::Xor(ts) => ts.iter().fold(0, |a, t| a ^ t.eval_word(operands, w)),
        }
    }

    /// Evaluates every lane; `operands[v]` holds variable `v`'s words.
    /// Lane counts are whole words throughout the benchmark.
    pub fn eval(&self, operands: &[Vec<u64>], lanes: usize) -> PackedBits {
        assert!(lanes.is_multiple_of(64), "lanes fill whole words");
        let out = (0..lanes / 64)
            .map(|w| self.eval_word(operands, w))
            .collect();
        PackedBits::from_words(out, lanes)
    }
}

/// One tenant expression: a display name and its tree.
#[derive(Debug, Clone)]
pub struct TenantExpr {
    pub name: &'static str,
    pub tree: Tree,
}

/// The tenant expression set shared by `serve-batch`, `device-exec`
/// and `daemon-replay`: majority, an XOR chain, a 16-wide AND, NAND
/// and NOR inversions, and two mixed forms.
///
/// The seed picks which variables each expression reads and in which
/// order; the shape of every expression is fixed, so the compiled
/// programs (and with them the planner's placements and the modeled
/// retry draws) have the same structure for every seed.
pub fn tenant_exprs(seed: u64) -> Vec<TenantExpr> {
    let mut rng = Rng::new(derive(seed, 0x7E4A));
    let mut pick = |k: usize| vars(&rng.pick(VARS, k));
    let maj = pick(3);
    let mixed2 = pick(4);
    vec![
        TenantExpr {
            name: "majority",
            tree: Tree::Or(vec![
                Tree::And(vec![maj[0].clone(), maj[1].clone()]),
                Tree::And(vec![maj[0].clone(), maj[2].clone()]),
                Tree::And(vec![maj[1].clone(), maj[2].clone()]),
            ]),
        },
        TenantExpr {
            name: "xor4",
            tree: Tree::Xor(pick(4)),
        },
        TenantExpr {
            name: "and16",
            tree: Tree::And(pick(16)),
        },
        TenantExpr {
            name: "nand4",
            tree: not(Tree::And(pick(4))),
        },
        TenantExpr {
            name: "nor3",
            tree: not(Tree::Or(pick(3))),
        },
        TenantExpr {
            name: "and4-xor-or4",
            tree: {
                let v = pick(8);
                Tree::Xor(vec![Tree::And(v[..4].to_vec()), Tree::Or(v[4..].to_vec())])
            },
        },
        TenantExpr {
            name: "nand2-or-xor2",
            tree: Tree::Or(vec![
                not(Tree::And(mixed2[..2].to_vec())),
                Tree::Xor(mixed2[2..].to_vec()),
            ]),
        },
    ]
}

/// The paper's functionally complete set as single-gate expressions:
/// NOT, and 2-, 4-, 8- and 16-input AND/OR/NAND/NOR. Returns
/// `(shape name, tree)`; the seed picks the variables.
pub fn paper_shapes(seed: u64) -> Vec<(String, Tree)> {
    let mut rng = Rng::new(derive(seed, 0x5A9E));
    let mut out = vec![("not".to_string(), not(Tree::Var(rng.below(VARS))))];
    for n in [2usize, 4, 8, 16] {
        for op in ["and", "or", "nand", "nor"] {
            let ins = vars(&rng.pick(VARS, n));
            let tree = match op {
                "and" => Tree::And(ins),
                "or" => Tree::Or(ins),
                "nand" => not(Tree::And(ins)),
                _ => not(Tree::Or(ins)),
            };
            out.push((format!("{op}{n}"), tree));
        }
    }
    out
}

/// Random operand words for every variable: `VARS` rows of `lanes`
/// bits.
pub fn operand_words(rng: &mut Rng, lanes: usize) -> Vec<Vec<u64>> {
    assert!(lanes.is_multiple_of(64), "lanes fill whole words");
    (0..VARS)
        .map(|_| (0..lanes / 64).map(|_| rng.next()).collect())
        .collect()
}

/// The variable index behind a compiler input name (`v7` → 7).
pub fn var_index(name: &str) -> usize {
    name.strip_prefix('v')
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("generator names variables v0..v{}: got {name}", VARS - 1))
}

/// Packs the operands a compiled program expects, in the order of its
/// input-name table.
pub fn program_operands(inputs: &[String], words: &[Vec<u64>], lanes: usize) -> Vec<PackedBits> {
    inputs
        .iter()
        .map(|name| PackedBits::from_words(words[var_index(name)].clone(), lanes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluator_matches_truth_tables() {
        let ops = vec![vec![0b1100u64], vec![0b1010u64], vec![0b0110u64]];
        let t = Tree::Or(vec![
            Tree::And(vec![Tree::Var(0), Tree::Var(1)]),
            Tree::Xor(vec![Tree::Var(1), Tree::Var(2)]),
        ]);
        assert_eq!(t.eval(&ops, 64).words()[0], 0b1100);
        assert_eq!(not(Tree::Var(0)).eval(&ops, 64).words()[0], !0b1100);
        assert_eq!(t.text(), "((v0 & v1) | (v1 ^ v2))");
    }

    #[test]
    fn expressions_depend_on_seed_only() {
        let a: Vec<String> = tenant_exprs(3).iter().map(|e| e.tree.text()).collect();
        let b: Vec<String> = tenant_exprs(3).iter().map(|e| e.tree.text()).collect();
        let c: Vec<String> = tenant_exprs(4).iter().map(|e| e.tree.text()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(paper_shapes(1).len(), 17);
    }
}
