//! Generated attack/defence witnesses — the paper's Tables 1–2 as
//! machine-checked artifacts.
//!
//! For every (defence state × attack op) cell the generator finds the
//! *minimal-depth* reachable state exhibiting the defence (straight out
//! of the checker's visited set), replays its pinned path, fires the
//! attack against machine and oracle, and records the verdict. The
//! rendered table is diffed against a checked-in golden; each row
//! carries the `--replay` indices that reproduce it. A second section
//! witnesses the paper's protocol-level attacks (hostile hypervisor
//! flows) on the full fuzzing world.

use veil_snp::perms::Vmpl;
use veil_snp::rmp::PageState;

use crate::checker::{replay, CheckConfig, ExploreReport, StateInfo};
use crate::exec::{World, GHCB_GFN};
use crate::model::{AbstractState, PageAbs};
use crate::ops::{AdversaryOp, PolicyKnob};

/// One defence column: a predicate over a page's abstract state.
struct Defence {
    name: &'static str,
    matches: fn(&PageAbs, Vmpl) -> bool,
}

/// The defence states of the paper's Tables 1–2, least privileged
/// attacker (`unt`) parameterized by the model's untrusted VMPL.
fn defences() -> Vec<Defence> {
    vec![
        Defence { name: "shared", matches: |p, _| p.state() == PageState::Shared },
        Defence {
            name: "assigned-unvalidated",
            matches: |p, _| p.state() == PageState::AssignedUnvalidated && !p.vmsa(),
        },
        Defence {
            name: "validated-locked",
            matches: |p, unt| p.state() == PageState::Validated && !p.vmsa() && p.perm(unt) == 0,
        },
        Defence {
            name: "validated-granted",
            matches: |p, unt| {
                p.state() == PageState::Validated && !p.vmsa() && p.perm(unt) == 0b1111
            },
        },
        Defence { name: "vmsa-live", matches: |p, _| p.vmsa() && p.live },
        Defence {
            name: "vmsa-stuck-bit",
            matches: |p, _| p.vmsa() && !p.live && p.state() == PageState::AssignedUnvalidated,
        },
    ]
}

/// The attack rows: hostile ops instantiated at the defended gfn.
fn attacks(gfn: u64, unt: Vmpl) -> Vec<(&'static str, AdversaryOp)> {
    vec![
        ("hv-read", AdversaryOp::HvRead { gfn }),
        ("hv-write", AdversaryOp::HvWrite { gfn }),
        ("hv-reassign", AdversaryOp::Assign { gfn }),
        ("hv-reclaim", AdversaryOp::Reclaim { gfn }),
        ("unt-read", AdversaryOp::GuestRead { vmpl: unt, gfn }),
        ("unt-write", AdversaryOp::GuestWrite { vmpl: unt, gfn }),
        ("unt-exec-user", AdversaryOp::GuestExec { vmpl: unt, user: true, gfn }),
        ("unt-pvalidate", AdversaryOp::Pvalidate { vmpl: unt, gfn, validate: true }),
        ("mon-revalidate", AdversaryOp::Pvalidate { vmpl: Vmpl::Vmpl0, gfn, validate: true }),
        (
            "unt-self-escalate",
            AdversaryOp::Rmpadjust { executing: unt, gfn, target: unt, perms: 0b1111 },
        ),
        ("unt-vmsa-create", AdversaryOp::VmsaCreate { executing: unt, gfn, target: unt }),
        ("unt-vmsa-destroy", AdversaryOp::VmsaDestroy { executing: unt, gfn }),
    ]
}

/// One generated matrix cell.
#[derive(Debug, Clone)]
pub struct CellWitness {
    /// Defence column name.
    pub defence: &'static str,
    /// Attack row name.
    pub attack: &'static str,
    /// Depth of the minimal setup path.
    pub depth: usize,
    /// `--replay` indices of the setup path.
    pub setup_indices: Vec<u16>,
    /// The setup ops (for self-contained reading).
    pub setup_ops: Vec<AdversaryOp>,
    /// The attack op fired on the defended gfn.
    pub op: AdversaryOp,
    /// The machine's result line.
    pub line: String,
    /// Whether the machine blocked the attack.
    pub blocked: bool,
}

/// One protocol-attack witness (hostile hypervisor flow).
#[derive(Debug, Clone)]
pub struct ProtocolWitness {
    /// Attack name.
    pub name: &'static str,
    /// What the machine must do about it.
    pub expectation: &'static str,
    /// The op sequence.
    pub ops: Vec<AdversaryOp>,
    /// Per-op result lines.
    pub lines: Vec<String>,
    /// Final halt latch.
    pub halted: Option<String>,
}

/// The full generated witness set.
#[derive(Debug, Clone)]
pub struct WitnessReport {
    /// Configuration name the matrix was generated from.
    pub config: &'static str,
    /// Page-state matrix cells, defence-major order.
    pub cells: Vec<CellWitness>,
    /// Protocol-attack witnesses.
    pub protocol: Vec<ProtocolWitness>,
}

/// Generates the page-state matrix from an exhaustive report plus the
/// fixed protocol witnesses.
///
/// # Errors
///
/// Returns an error if a defence state the configuration should reach
/// was never visited, or if replaying a pinned path diverges (both
/// harness bugs).
pub fn generate(report: &ExploreReport, cfg: &CheckConfig) -> Result<WitnessReport, String> {
    let unt = cfg.model.untrusted_vmpl();
    let mut cells = Vec::new();
    for defence in defences() {
        let best = minimal_state(report, &defence, unt)
            .ok_or_else(|| format!("defence state `{}` unreachable", defence.name))?;
        let (_, world) = replay(cfg, &best.path)
            .map_err(|e| format!("setup replay for `{}`: {e}", defence.name))?;
        let concrete = AbstractState::extract(&world, &cfg.model);
        let page_idx = concrete
            .pages
            .iter()
            .position(|p| (defence.matches)(p, unt))
            .ok_or_else(|| format!("replayed state lost defence `{}`", defence.name))?;
        let gfn = cfg.model.model_gfns[page_idx];
        for (attack, op) in attacks(gfn, unt) {
            let line = world
                .clone()
                .step(&op)
                .map_err(|e| format!("cell {}/{attack}: {e}", defence.name))?;
            cells.push(CellWitness {
                defence: defence.name,
                attack,
                depth: best.depth,
                setup_indices: best.path.clone(),
                setup_ops: best.path.iter().map(|&i| report.alphabet[i as usize]).collect(),
                op,
                blocked: line.contains("Err("),
                line,
            });
        }
    }
    Ok(WitnessReport { config: cfg.model.name, cells, protocol: protocol_witnesses()? })
}

/// The minimal-depth visited state exhibiting `defence` while the
/// machine is still running; ties broken by path order so generation is
/// deterministic.
fn minimal_state<'a>(
    report: &'a ExploreReport,
    defence: &Defence,
    unt: Vmpl,
) -> Option<&'a StateInfo> {
    report
        .visited
        .values()
        .filter(|info| info.state.halted.is_none())
        .filter(|info| info.state.pages.iter().any(|p| (defence.matches)(p, unt)))
        .min_by(|x, y| (x.depth, &x.path).cmp(&(y.depth, &y.path)))
}

/// The paper's protocol-level attacks (§6.2, Tables 1–2 lower half),
/// witnessed on the full fuzzing world: interrupt suppression, VMSA
/// tampering on switch, switch refusal, switch misrouting, and GHCB
/// theft. Each runs in machine-vs-oracle lockstep and must stay
/// divergence-free — the *machine's* defence (halt, drop, refusal
/// surfaced in the response) is the witnessed outcome.
fn protocol_witnesses() -> Result<Vec<ProtocolWitness>, String> {
    let specs: Vec<(&'static str, &'static str, Vec<AdversaryOp>)> = vec![
        (
            "interrupt-suppression",
            "halt (security by crash): interrupt forced into Dom_ENC with relay disabled",
            vec![
                AdversaryOp::SetPolicy { knob: PolicyKnob::RelayInterrupts, on: false },
                AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl0, target: Vmpl::Vmpl2, user_ghcb: false },
                AdversaryOp::AutoExit,
            ],
        ),
        (
            "vmsa-tamper-on-switch",
            "tamper write dropped by the RMP; switch completes, VMSA markers intact",
            vec![
                AdversaryOp::SetPolicy { knob: PolicyKnob::TamperVmsa, on: true },
                AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl0, target: Vmpl::Vmpl3, user_ghcb: false },
            ],
        ),
        (
            "switch-refusal-dos",
            "refusal surfaced in the response (denial of service, not a breach)",
            vec![
                AdversaryOp::SetPolicy { knob: PolicyKnob::RefuseSwitches, on: true },
                AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl0, target: Vmpl::Vmpl3, user_ghcb: false },
            ],
        ),
        (
            "switch-misroute",
            "misroute visible: the response names the actual destination domain",
            vec![
                AdversaryOp::SetPolicy { knob: PolicyKnob::MisrouteSwitches, on: true },
                AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl0, target: Vmpl::Vmpl1, user_ghcb: false },
            ],
        ),
        (
            "ghcb-theft-crash",
            "halt (security by crash): VMGEXIT with a privatized GHCB",
            vec![
                AdversaryOp::Psc { vmpl: Vmpl::Vmpl0, gfn: GHCB_GFN, to_private: true },
                AdversaryOp::Pvalidate { vmpl: Vmpl::Vmpl0, gfn: GHCB_GFN, validate: true },
                AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl0, target: Vmpl::Vmpl3, user_ghcb: false },
            ],
        ),
    ];
    let mut out = Vec::new();
    for (name, expectation, ops) in specs {
        let mut world = World::new(None);
        let mut lines = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            lines.push(world.step(op).map_err(|e| format!("protocol {name} op {i}: {e}"))?);
        }
        let halted = world.hv.machine.halted().map(|r| format!("{r:?}"));
        out.push(ProtocolWitness { name, expectation, ops, lines, halted });
    }
    Ok(out)
}

fn verdict(line: &str) -> String {
    match line.find("Err(") {
        Some(i) => format!("BLOCKED   {}", &line[i..]),
        None => "permitted".into(),
    }
}

/// Renders the witness set as the stable golden text.
pub fn render(w: &WitnessReport) -> String {
    let mut out = String::new();
    out.push_str("# Generated attack/defence witness matrix (paper Tables 1-2)\n");
    out.push_str(&format!("# config: {}\n", w.config));
    out.push_str("# regen: modelcheck --config <name> --write-goldens (or VEIL_REGEN_GOLDEN=1)\n");
    out.push_str("\n## RMP page-state matrix\n");
    let mut last = "";
    for c in &w.cells {
        if c.defence != last {
            last = c.defence;
            out.push_str(&format!(
                "\ndefence {} (depth {}, replay [{}])\n  setup: {:?}\n",
                c.defence,
                c.depth,
                c.setup_indices.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(","),
                c.setup_ops,
            ));
        }
        out.push_str(&format!("  {:<18} -> {}\n", c.attack, verdict(&c.line)));
    }
    out.push_str("\n## protocol attacks (hostile hypervisor flows, fuzz world)\n");
    for p in &w.protocol {
        out.push_str(&format!("\nwitness {}\n  expect: {}\n", p.name, p.expectation));
        for (op, line) in p.ops.iter().zip(&p.lines) {
            out.push_str(&format!("  op {op:?}\n     -> {line}\n"));
        }
        out.push_str(&format!("  halted: {:?}\n", p.halted));
    }
    out
}

/// Renders the pinned state/edge counts and coverage of an exhaustive
/// run (the counts golden).
pub fn render_counts(report: &ExploreReport) -> String {
    let cov_ops: Vec<&str> = report.coverage.ops.iter().copied().collect();
    let cov_verdicts: Vec<&str> = report.coverage.verdicts.iter().copied().collect();
    format!(
        "config: {}\nalphabet: {}\nstates: {}\nedges: {}\nmax-depth: {}\n\
         coverage-ops({}): {}\ncoverage-verdicts({}): {}\n",
        report.config.name,
        report.alphabet.len(),
        report.states,
        report.edges,
        report.max_depth,
        cov_ops.len(),
        cov_ops.join(","),
        cov_verdicts.len(),
        cov_verdicts.join(","),
    )
}
