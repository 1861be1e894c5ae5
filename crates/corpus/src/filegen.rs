//! File-level generation: scenarios compose correlated task sequences into
//! role task files and playbooks, reproducing the structure of Ansible
//! Galaxy content (roles with task lists; mostly-small playbooks).

use wisdom_ansible::{Play, Playbook, Task, TaskItem};
use wisdom_prng::Prng;
use wisdom_yaml::{Mapping, Value};

use crate::taskgen::{generate_task, pick_product, FileCtx, TaskKind};
use crate::vocab::{Product, HOST_GROUPS, PRODUCTS};

/// A coherent IT-automation scenario; each produces a correlated sequence of
/// tasks, which is what makes "the next task" predictable from context (the
/// T+NL→T and PB+NL→T generation types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Install/configure/start a web server.
    WebServer,
    /// Database server provisioning.
    Database,
    /// Monitoring stack (prometheus/grafana/exporters).
    Monitoring,
    /// Docker host + containers.
    DockerHost,
    /// Accounts, groups, SSH keys.
    UserManagement,
    /// Security hardening.
    Hardening,
    /// Application checkout/deployment.
    AppDeploy,
    /// Base system setup.
    Baseline,
    /// Network appliance configuration (the paper's Fig. 2 example).
    NetworkDevice,
}

/// All scenarios with their sampling weights (roughly matching how common
/// each theme is in public Ansible content).
pub static SCENARIOS: &[(Scenario, f64)] = &[
    (Scenario::WebServer, 0.18),
    (Scenario::Database, 0.13),
    (Scenario::Monitoring, 0.10),
    (Scenario::DockerHost, 0.10),
    (Scenario::UserManagement, 0.12),
    (Scenario::Hardening, 0.10),
    (Scenario::AppDeploy, 0.12),
    (Scenario::Baseline, 0.10),
    (Scenario::NetworkDevice, 0.05),
];

impl Scenario {
    /// Samples a scenario from the weighted distribution.
    pub fn pick(rng: &mut Prng) -> Scenario {
        let weights: Vec<f64> = SCENARIOS.iter().map(|(_, w)| *w).collect();
        SCENARIOS[rng.weighted_index(&weights)].0
    }

    /// Picks the product this scenario centres on.
    pub fn product(&self, rng: &mut Prng) -> &'static Product {
        match self {
            Scenario::WebServer => {
                pick_product(rng, |p| matches!(p.label, "nginx" | "apache" | "haproxy"))
            }
            Scenario::Database => {
                pick_product(rng, |p| matches!(p.label, "postgresql" | "mysql" | "redis"))
            }
            Scenario::Monitoring => pick_product(rng, |p| {
                matches!(p.label, "prometheus" | "grafana" | "node exporter")
            }),
            Scenario::DockerHost => pick_product(rng, |p| p.label == "docker"),
            Scenario::Hardening => pick_product(rng, |p| p.label == "fail2ban"),
            Scenario::UserManagement | Scenario::AppDeploy | Scenario::Baseline => {
                pick_product(rng, |p| p.label == "ssh server")
            }
            Scenario::NetworkDevice => &PRODUCTS[0], // unused by network kinds
        }
    }

    /// The ordered task plan: `(kind, probability_of_inclusion)`.
    fn plan(&self) -> &'static [(TaskKind, f64)] {
        match self {
            Scenario::WebServer => &[
                (TaskKind::UpdateCache, 0.3),
                (TaskKind::InstallProduct, 1.0),
                (TaskKind::DeployConfig, 0.9),
                (TaskKind::EnableService, 1.0),
                (TaskKind::OpenFirewall, 0.5),
                (TaskKind::WaitForPort, 0.3),
            ],
            Scenario::Database => &[
                (TaskKind::InstallProduct, 1.0),
                (TaskKind::DeployConfig, 0.6),
                (TaskKind::EnableService, 1.0),
                (TaskKind::CreateDatabase, 0.7),
                (TaskKind::CreateDbUser, 0.6),
                (TaskKind::OpenFirewall, 0.4),
            ],
            Scenario::Monitoring => &[
                (TaskKind::InstallProduct, 1.0),
                (TaskKind::DeployConfig, 0.9),
                (TaskKind::EnableService, 1.0),
                (TaskKind::WaitForPort, 0.5),
                (TaskKind::DebugMsg, 0.2),
            ],
            Scenario::DockerHost => &[
                (TaskKind::InstallProduct, 1.0),
                (TaskKind::EnableService, 1.0),
                (TaskKind::CreateGroup, 0.4),
                (TaskKind::CreateUser, 0.4),
                (TaskKind::DockerContainer, 1.0),
                (TaskKind::DockerContainer, 0.4),
            ],
            Scenario::UserManagement => &[
                (TaskKind::CreateGroup, 0.8),
                (TaskKind::CreateUser, 1.0),
                (TaskKind::AuthorizedKey, 0.9),
                (TaskKind::ConfigLine, 0.4),
            ],
            Scenario::Hardening => &[
                (TaskKind::InstallProduct, 1.0),
                (TaskKind::DeployConfig, 0.8),
                (TaskKind::EnableService, 1.0),
                (TaskKind::Sysctl, 0.7),
                (TaskKind::ConfigLine, 0.7),
                (TaskKind::OpenFirewall, 0.5),
            ],
            Scenario::AppDeploy => &[
                (TaskKind::CreateDirectory, 0.9),
                (TaskKind::GitClone, 0.7),
                (TaskKind::Download, 0.4),
                (TaskKind::Unarchive, 0.35),
                (TaskKind::DeployConfig, 0.7),
                (TaskKind::CronJob, 0.4),
                (TaskKind::RestartService, 0.5),
            ],
            Scenario::Baseline => &[
                (TaskKind::UpdateCache, 0.7),
                (TaskKind::InstallUtils, 1.0),
                (TaskKind::SetTimezone, 0.6),
                (TaskKind::SetHostname, 0.4),
                (TaskKind::Sysctl, 0.5),
                (TaskKind::CreateUser, 0.3),
            ],
            Scenario::NetworkDevice => &[
                (TaskKind::NetworkFacts, 0.9),
                (TaskKind::NetworkConfig, 1.0),
                (TaskKind::NetworkFacts, 0.5),
                (TaskKind::DebugMsg, 0.2),
            ],
        }
    }

    /// Natural-language play-name templates for this scenario.
    fn play_name(&self, product: &Product, rng: &mut Prng) -> String {
        let options = match self {
            Scenario::WebServer => vec![
                format!("Setup {} web server", product.label),
                format!("Install and configure {}", product.label),
                "Web server provisioning".to_string(),
            ],
            Scenario::Database => vec![
                format!("Provision {} database server", product.label),
                format!("Setup {}", product.label),
                "Database setup playbook".to_string(),
            ],
            Scenario::Monitoring => vec![
                format!("Deploy {} monitoring", product.label),
                "Monitoring stack setup".to_string(),
            ],
            Scenario::DockerHost => vec![
                "Docker host setup".to_string(),
                "Provision container host".to_string(),
            ],
            Scenario::UserManagement => vec![
                "Manage user accounts".to_string(),
                "User provisioning playbook".to_string(),
            ],
            Scenario::Hardening => vec![
                "Security hardening".to_string(),
                "Harden ssh and firewall".to_string(),
            ],
            Scenario::AppDeploy => vec![
                "Deploy application".to_string(),
                "Application rollout playbook".to_string(),
            ],
            Scenario::Baseline => vec![
                "Base system setup".to_string(),
                "Common server configuration".to_string(),
            ],
            Scenario::NetworkDevice => vec![
                "Network Setup Playbook".to_string(),
                "Configure network devices".to_string(),
            ],
        };
        rng.choice(&options).clone()
    }

    /// A host pattern that suits the scenario.
    fn hosts(&self, rng: &mut Prng) -> &'static str {
        let groups: &[&'static str] = match self {
            Scenario::WebServer => &["webservers", "web", "all"],
            Scenario::Database => &["dbservers", "databases", "all"],
            Scenario::Monitoring => &["monitoring", "all"],
            Scenario::DockerHost => &["workers", "docker", "all"],
            // No rng draw here: keeps the deterministic stream unchanged.
            Scenario::NetworkDevice => return "all",
            _ => HOST_GROUPS,
        };
        rng.pick(groups)
    }
}

/// Generates the task sequence for a scenario, bounded to
/// `[min_tasks, max_tasks]`.
pub fn scenario_tasks(
    scenario: Scenario,
    ctx: &FileCtx,
    rng: &mut Prng,
    min_tasks: usize,
    max_tasks: usize,
) -> Vec<Task> {
    let product = scenario.product(rng);
    let mut tasks = Vec::new();
    for &(kind, p) in scenario.plan() {
        if tasks.len() >= max_tasks {
            break;
        }
        if rng.chance(p) {
            tasks.push(generate_task(kind, product, ctx, rng));
        }
    }
    // Top up from the plan's mandatory-ish kinds if we fell short.
    let mut guard = 0;
    while tasks.len() < min_tasks && guard < 20 {
        let plan = scenario.plan();
        let (kind, _) = plan[rng.range_usize(0, plan.len())];
        tasks.push(generate_task(kind, product, ctx, rng));
        guard += 1;
    }
    tasks.truncate(max_tasks);
    tasks
}

/// Generates a role task file (`tasks/main.yml` content).
pub fn generate_role_file(ctx: &FileCtx, rng: &mut Prng) -> Vec<Task> {
    let scenario = Scenario::pick(rng);
    // Galaxy roles average ~5-7 tasks (Table 5's T+NL→T : NL→T ratio).
    scenario_tasks(scenario, ctx, rng, 3, 8)
}

/// Generates a playbook with a single play of `min..=max` tasks.
pub fn generate_playbook(
    ctx: &FileCtx,
    rng: &mut Prng,
    min_tasks: usize,
    max_tasks: usize,
) -> Playbook {
    let scenario = Scenario::pick(rng);
    let product = scenario.product(rng);
    let tasks = scenario_tasks(scenario, ctx, rng, min_tasks, max_tasks);
    let mut keywords = Mapping::new();
    keywords.insert(
        "hosts".to_string(),
        Value::from(scenario.hosts(rng).to_string()),
    );
    if scenario == Scenario::NetworkDevice {
        keywords.insert(
            "connection".to_string(),
            Value::from("ansible.netcommon.network_cli"),
        );
        keywords.insert("gather_facts".to_string(), Value::Bool(false));
    } else {
        if rng.chance(0.4) {
            keywords.insert("become".to_string(), Value::Bool(true));
        }
        if rng.chance(0.25) {
            keywords.insert("gather_facts".to_string(), Value::Bool(rng.chance(0.5)));
        }
        if rng.chance(0.25) {
            let mut vars = Mapping::new();
            vars.insert(
                "app_port".to_string(),
                Value::Int(i64::from(if product.port == 0 {
                    8080
                } else {
                    product.port
                })),
            );
            vars.insert("app_env".to_string(), Value::from("production"));
            keywords.insert("vars".to_string(), Value::Map(vars));
        }
    }
    let play = Play {
        name: Some(scenario.play_name(product, rng)),
        hosts: keywords
            .get("hosts")
            .and_then(|v| v.as_str())
            .map(String::from),
        tasks: tasks.into_iter().map(TaskItem::Task).collect(),
        pre_tasks: Vec::new(),
        post_tasks: Vec::new(),
        handlers: Vec::new(),
        keywords,
    };
    Playbook { plays: vec![play] }
}

/// Emits a role task file as canonical YAML text with a `---` marker.
pub fn emit_task_file(tasks: &[Task]) -> String {
    let value = Value::Seq(tasks.iter().map(Task::to_value).collect());
    wisdom_yaml::EmitOptions {
        start_marker: true,
        ..Default::default()
    }
    .emit(&value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisdom_ansible::{lint_str, LintTarget};

    #[test]
    fn role_files_are_schema_correct() {
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..30 {
            let ctx = FileCtx::galaxy(&mut rng);
            let tasks = generate_role_file(&ctx, &mut rng);
            assert!((3..=8).contains(&tasks.len()), "{} tasks", tasks.len());
            let text = emit_task_file(&tasks);
            let violations = lint_str(&text, LintTarget::TaskFile);
            assert!(violations.is_empty(), "{violations:?}\n{text}");
        }
    }

    #[test]
    fn playbooks_are_schema_correct_and_parse() {
        let mut rng = Prng::seed_from_u64(2);
        for _ in 0..30 {
            let ctx = FileCtx::galaxy(&mut rng);
            let pb = generate_playbook(&ctx, &mut rng, 1, 2);
            let text = pb.to_yaml();
            let violations = lint_str(&text, LintTarget::Playbook);
            assert!(violations.is_empty(), "{violations:?}\n{text}");
            let back = Playbook::parse(&text).unwrap();
            assert_eq!(back.plays.len(), 1);
            assert!(back.plays[0].flat_tasks().len() <= 2);
        }
    }

    #[test]
    fn large_playbooks_have_more_tasks() {
        let mut rng = Prng::seed_from_u64(3);
        let ctx = FileCtx::galaxy(&mut rng);
        let pb = generate_playbook(&ctx, &mut rng, 3, 6);
        assert!(pb.plays[0].flat_tasks().len() >= 3);
    }

    #[test]
    fn crawled_files_may_violate_schema_but_parse() {
        let mut rng = Prng::seed_from_u64(4);
        let mut violations_seen = 0;
        for _ in 0..40 {
            let ctx = FileCtx::crawled(&mut rng);
            let tasks = generate_role_file(&ctx, &mut rng);
            let text = emit_task_file(&tasks);
            assert!(wisdom_yaml::parse(&text).is_ok(), "must stay valid YAML");
            if !lint_str(&text, LintTarget::TaskFile).is_empty() {
                violations_seen += 1;
            }
        }
        assert!(
            violations_seen > 0,
            "crawled content should include historical forms"
        );
    }

    #[test]
    fn determinism() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        let ctx_a = FileCtx::galaxy(&mut a);
        let ctx_b = FileCtx::galaxy(&mut b);
        let fa = emit_task_file(&generate_role_file(&ctx_a, &mut a));
        let fb = emit_task_file(&generate_role_file(&ctx_b, &mut b));
        assert_eq!(fa, fb);
    }

    #[test]
    fn scenario_distribution_covers_all() {
        let mut rng = Prng::seed_from_u64(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(format!("{:?}", Scenario::pick(&mut rng)));
        }
        assert_eq!(seen.len(), SCENARIOS.len());
    }

    #[test]
    fn network_playbooks_use_network_cli() {
        let mut rng = Prng::seed_from_u64(9);
        let ctx = FileCtx::galaxy(&mut rng);
        // Find a network scenario deterministically.
        for _ in 0..200 {
            let pb = generate_playbook(&ctx, &mut rng, 1, 4);
            let kw = &pb.plays[0].keywords;
            if let Some(conn) = kw.get("connection").and_then(|v| v.as_str()) {
                assert_eq!(conn, "ansible.netcommon.network_cli");
                assert_eq!(kw.get("gather_facts"), Some(&Value::Bool(false)));
                return;
            }
        }
        panic!("no network playbook generated in 200 draws");
    }
}
