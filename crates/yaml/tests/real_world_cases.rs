//! Regression tests on realistic YAML fragments seen in public Ansible and
//! DevOps content — the shapes the corpus generator and model outputs must
//! survive. Every input is also parsed by the owned-tree oracle, which must
//! agree with the crate on the tree, the error and the emitted text.

mod oracle;

use wisdom_yaml::{ParseYamlError, Value};

fn parse(src: &str) -> Result<Value<'_>, ParseYamlError> {
    oracle::assert_agrees(src);
    wisdom_yaml::parse(src)
}

fn parse_documents(src: &str) -> Result<Vec<Value<'_>>, ParseYamlError> {
    oracle::assert_agrees(src);
    wisdom_yaml::parse_documents(src)
}

fn get<'v, 'a>(v: &'v Value<'a>, path: &[&str]) -> &'v Value<'a> {
    let mut cur = v;
    for key in path {
        cur = cur
            .as_map()
            .unwrap_or_else(|| panic!("not a map at {key}"))
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key}"));
    }
    cur
}

#[test]
fn github_actions_on_key() {
    // `on` resolves as a YAML 1.1 boolean key in some parsers; ours keeps
    // mapping keys as written.
    let v = parse("name: CI\non:\n  push:\n    branches:\n      - main\n").unwrap();
    assert!(v.as_map().unwrap().contains_key("on"));
    let branches = get(&v, &["on", "push", "branches"]);
    assert_eq!(branches.as_seq().unwrap().len(), 1);
}

#[test]
fn octal_file_modes() {
    let v = parse("mode1: \"0644\"\nmode2: 0644\n").unwrap();
    // Quoted stays a string; unquoted parses as an integer (like PyYAML 1.2
    // without the 0o prefix — decimal 644).
    assert_eq!(get(&v, &["mode1"]).as_str(), Some("0644"));
    assert_eq!(get(&v, &["mode2"]).as_int(), Some(644));
}

#[test]
fn jinja_expressions_survive() {
    let src = "msg: 'Result: {{ result.stdout | default(\"none\") }}'\nwhen: ansible_facts['os_family'] == 'Debian'\nloop: \"{{ users | dict2items }}\"\n";
    let v = parse(src).unwrap();
    assert!(get(&v, &["msg"]).as_str().unwrap().contains("default"));
    assert!(get(&v, &["when"]).as_str().unwrap().contains("os_family"));
    assert!(get(&v, &["loop"]).as_str().unwrap().contains("dict2items"));
}

#[test]
fn multiline_shell_script() {
    let src = "script: |\n  #!/bin/bash\n  set -euo pipefail\n  if [ -d /opt/app ]; then\n    rm -rf /opt/app/cache\n  fi\n";
    let v = parse(src).unwrap();
    let script = get(&v, &["script"]).as_str().unwrap();
    assert!(script.starts_with("#!/bin/bash\n"));
    assert!(script.contains("  rm -rf"));
    assert_eq!(script.lines().count(), 5);
}

#[test]
fn docker_compose_ports_strings() {
    let v = parse("ports:\n  - \"80:80\"\n  - 8080:8080\n").unwrap();
    let ports = get(&v, &["ports"]).as_seq().unwrap();
    assert_eq!(ports[0].as_str(), Some("80:80"));
    // Unquoted 8080:8080 is a plain scalar (not a valid int).
    assert_eq!(ports[1].as_str(), Some("8080:8080"));
}

#[test]
fn inventory_style_empty_values() {
    let v = parse("all:\n  hosts:\n    web1:\n    web2:\n  children:\n    db:\n").unwrap();
    assert!(get(&v, &["all", "hosts", "web1"]).is_null());
    assert!(get(&v, &["all", "children", "db"]).is_null());
}

#[test]
fn deeply_mixed_nesting() {
    let src = "- name: outer\n  block:\n    - name: inner\n      ansible.builtin.debug:\n        msg: hi\n      with_items:\n        - a\n        - b\n      when:\n        - cond1\n        - cond2\n";
    let v = parse(src).unwrap();
    let task = &v.as_seq().unwrap()[0];
    let block = get(task, &["block"]).as_seq().unwrap();
    let when = get(&block[0], &["when"]).as_seq().unwrap();
    assert_eq!(when.len(), 2);
}

#[test]
fn multi_document_k8s_manifests() {
    let src =
        "---\napiVersion: v1\nkind: Service\n---\napiVersion: apps/v1\nkind: Deployment\n...\n";
    let docs = parse_documents(src).unwrap();
    assert_eq!(docs.len(), 2);
    assert_eq!(get(&docs[1], &["kind"]).as_str(), Some("Deployment"));
}

#[test]
fn comments_between_tasks() {
    let src = "# setup section\n- name: a\n  ansible.builtin.ping: {}\n\n# deploy section\n- name: b   # trailing note\n  ansible.builtin.ping: {}\n";
    let v = parse(src).unwrap();
    let tasks = v.as_seq().unwrap();
    assert_eq!(tasks.len(), 2);
    assert_eq!(get(&tasks[1], &["name"]).as_str(), Some("b"));
}

#[test]
fn windows_paths_and_backslashes() {
    let v = parse("dest: C:\\Program Files\\App\nsrc: \"files\\\\app.exe\"\n").unwrap();
    assert_eq!(get(&v, &["dest"]).as_str(), Some("C:\\Program Files\\App"));
    assert_eq!(get(&v, &["src"]).as_str(), Some("files\\app.exe"));
}

#[test]
fn anchors_fail_loudly_not_silently() {
    let err = parse("defaults: &base\n  retries: 3\ntask:\n  <<: *base\n").unwrap_err();
    assert!(err.to_string().contains("unsupported"));
}

#[test]
fn url_values_with_ports_and_queries() {
    let v = parse("url: https://example.com:8443/api?x=1&y=2\n").unwrap();
    assert_eq!(
        get(&v, &["url"]).as_str(),
        Some("https://example.com:8443/api?x=1&y=2")
    );
}

#[test]
fn empty_flow_collections_in_context() {
    let v = parse("a: []\nb: {}\nc:\n  - []\n  - {}\n").unwrap();
    assert_eq!(get(&v, &["a"]).as_seq().unwrap().len(), 0);
    assert_eq!(get(&v, &["b"]).as_map().unwrap().len(), 0);
    assert_eq!(get(&v, &["c"]).as_seq().unwrap().len(), 2);
}
