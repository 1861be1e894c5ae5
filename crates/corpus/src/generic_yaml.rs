//! Generators for non-Ansible "generic YAML": CI pipelines, Kubernetes
//! manifests, docker-compose files and application configs — the 2.2M-file
//! generic channel of Table 1. Generic YAML teaches the models indentation,
//! key/value and list syntax that transfers to Ansible.

use wisdom_prng::Prng;
use wisdom_yaml::{EmitOptions, Mapping, Value};

fn s(v: impl Into<String>) -> Value<'static> {
    Value::from(v.into())
}

fn m(pairs: Vec<(&str, Value<'static>)>) -> Value<'static> {
    let mut out = Mapping::new();
    for (k, v) in pairs {
        out.insert(k.to_string(), v);
    }
    Value::Map(out)
}

/// The kind of generic YAML document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenericKind {
    /// GitHub-Actions-style CI workflow.
    CiWorkflow,
    /// Kubernetes Deployment/Service manifest.
    K8sManifest,
    /// docker-compose file.
    DockerCompose,
    /// Flat application configuration.
    AppConfig,
}

/// Generates one generic YAML document.
pub fn generate_generic(rng: &mut Prng) -> String {
    let kind = match rng.weighted_index(&[0.3, 0.3, 0.2, 0.2]) {
        0 => GenericKind::CiWorkflow,
        1 => GenericKind::K8sManifest,
        2 => GenericKind::DockerCompose,
        _ => GenericKind::AppConfig,
    };
    generate_generic_of(kind, rng)
}

/// Generates a generic document of a specific kind.
pub fn generate_generic_of(kind: GenericKind, rng: &mut Prng) -> String {
    let value = match kind {
        GenericKind::CiWorkflow => ci_workflow(rng),
        GenericKind::K8sManifest => k8s_manifest(rng),
        GenericKind::DockerCompose => docker_compose(rng),
        GenericKind::AppConfig => app_config(rng),
    };
    EmitOptions {
        start_marker: true,
        ..Default::default()
    }
    .emit(&value)
}

fn ci_workflow(rng: &mut Prng) -> Value<'static> {
    let lang = *rng.choice(&["node", "python", "go", "rust"]);
    let (setup, build, test) = match lang {
        "node" => ("actions/setup-node@v3", "npm ci", "npm test"),
        "python" => (
            "actions/setup-python@v4",
            "pip install -r requirements.txt",
            "pytest",
        ),
        "go" => ("actions/setup-go@v4", "go build ./...", "go test ./..."),
        _ => (
            "actions-rs/toolchain@v1",
            "cargo build --release",
            "cargo test",
        ),
    };
    let mut steps = vec![
        m(vec![("uses", s("actions/checkout@v3"))]),
        m(vec![("uses", s(setup))]),
        m(vec![("name", s("Build")), ("run", s(build))]),
        m(vec![("name", s("Test")), ("run", s(test))]),
    ];
    if rng.chance(0.3) {
        steps.push(m(vec![
            ("name", s("Upload artifacts")),
            ("uses", s("actions/upload-artifact@v3")),
            ("with", m(vec![("path", s("dist/"))])),
        ]));
    }
    m(vec![
        ("name", s(format!("{lang} CI"))),
        (
            "on",
            m(vec![
                ("push", m(vec![("branches", Value::Seq(vec![s("main")]))])),
                ("pull_request", Value::Map(Mapping::new())),
            ]),
        ),
        (
            "jobs",
            m(vec![(
                "build",
                m(vec![
                    ("runs-on", s("ubuntu-latest")),
                    ("steps", Value::Seq(steps)),
                ]),
            )]),
        ),
    ])
}

fn k8s_manifest(rng: &mut Prng) -> Value<'static> {
    let app = *rng.choice(&["web", "api", "worker", "frontend", "cache"]);
    let image = *rng.choice(&["nginx:1.25", "redis:7", "example/api:2.3.1", "postgres:15"]);
    let replicas = *rng.choice(&[1i64, 2, 3, 5]);
    let port = *rng.choice(&[80i64, 8080, 5432, 6379]);
    m(vec![
        ("apiVersion", s("apps/v1")),
        ("kind", s("Deployment")),
        (
            "metadata",
            m(vec![("name", s(app)), ("labels", m(vec![("app", s(app))]))]),
        ),
        (
            "spec",
            m(vec![
                ("replicas", Value::Int(replicas)),
                (
                    "selector",
                    m(vec![("matchLabels", m(vec![("app", s(app))]))]),
                ),
                (
                    "template",
                    m(vec![
                        ("metadata", m(vec![("labels", m(vec![("app", s(app))]))])),
                        (
                            "spec",
                            m(vec![(
                                "containers",
                                Value::Seq(vec![m(vec![
                                    ("name", s(app)),
                                    ("image", s(image)),
                                    (
                                        "ports",
                                        Value::Seq(vec![m(vec![(
                                            "containerPort",
                                            Value::Int(port),
                                        )])]),
                                    ),
                                ])]),
                            )]),
                        ),
                    ]),
                ),
            ]),
        ),
    ])
}

fn docker_compose(rng: &mut Prng) -> Value<'static> {
    let mut services = Mapping::new();
    let n = rng.range_usize(1, 4);
    let choices = [
        ("web", "nginx:stable", "80:80"),
        ("app", "example/app:latest", "8080:8080"),
        ("db", "postgres:15", "5432:5432"),
        ("cache", "redis:7-alpine", "6379:6379"),
    ];
    let idx = rng.sample_indices(choices.len(), n);
    for i in idx {
        let (name, image, ports) = choices[i];
        let mut svc = vec![
            ("image", s(image)),
            ("restart", s("unless-stopped")),
            ("ports", Value::Seq(vec![s(ports)])),
        ];
        if rng.chance(0.4) {
            svc.push(("environment", m(vec![("APP_ENV", s("production"))])));
        }
        services.insert(name.to_string(), m(svc));
    }
    m(vec![
        ("version", s("3.8")),
        ("services", Value::Map(services)),
    ])
}

fn app_config(rng: &mut Prng) -> Value<'static> {
    let level = *rng.choice(&["info", "debug", "warning"]);
    let port = *rng.choice(&[8000i64, 8080, 9000, 3000]);
    m(vec![
        (
            "server",
            m(vec![
                ("host", s("0.0.0.0")),
                ("port", Value::Int(port)),
                ("workers", Value::Int(*rng.choice(&[2i64, 4, 8]))),
            ]),
        ),
        (
            "logging",
            m(vec![
                ("level", s(level)),
                ("file", s("/var/log/app/app.log")),
            ]),
        ),
        (
            "features",
            Value::Seq(vec![s("metrics"), s("tracing"), s("healthcheck")]),
        ),
        ("debug", Value::Bool(level == "debug")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_produce_valid_yaml() {
        let mut rng = Prng::seed_from_u64(1);
        for kind in [
            GenericKind::CiWorkflow,
            GenericKind::K8sManifest,
            GenericKind::DockerCompose,
            GenericKind::AppConfig,
        ] {
            for _ in 0..10 {
                let text = generate_generic_of(kind, &mut rng);
                wisdom_yaml::parse(&text)
                    .unwrap_or_else(|e| panic!("{kind:?} invalid: {e}\n{text}"));
            }
        }
    }

    #[test]
    fn generic_docs_are_not_ansible() {
        let mut rng = Prng::seed_from_u64(2);
        for _ in 0..20 {
            let text = generate_generic(&mut rng);
            assert!(!text.contains("ansible.builtin"), "{text}");
        }
    }

    #[test]
    fn k8s_manifests_have_expected_keys() {
        let mut rng = Prng::seed_from_u64(3);
        let text = generate_generic_of(GenericKind::K8sManifest, &mut rng);
        assert!(text.contains("apiVersion: apps/v1"));
        assert!(text.contains("kind: Deployment"));
    }

    #[test]
    fn deterministic() {
        let mut a = Prng::seed_from_u64(4);
        let mut b = Prng::seed_from_u64(4);
        assert_eq!(generate_generic(&mut a), generate_generic(&mut b));
    }
}
