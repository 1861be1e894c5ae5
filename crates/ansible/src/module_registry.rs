//! The module registry: the catalog of Ansible modules this system knows
//! about, with their fully-qualified collection names (FQCN), short-name
//! aliases, parameter schemas, and the equivalence classes used by the
//! Ansible Aware metric (§5.1 of the paper: `command`/`shell`,
//! `copy`/`template`, `package`/`apt`/`dnf`/`yum` accept many of the same
//! arguments and are given partial credit when exchanged).

use std::collections::HashMap;
use std::sync::OnceLock;

use wisdom_yaml::Value;

/// The expected shape of a module parameter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Any scalar usable as a string (paths, names, URLs, jinja templates).
    Str,
    /// Boolean toggles (`yes`/`no`/`true`/`false`).
    Bool,
    /// Integer quantities (ports, timeouts, sizes).
    Int,
    /// A YAML sequence.
    List,
    /// A YAML mapping.
    Map,
    /// Unchecked (heterogeneous values like `mode: 0644` or `mode: "u+x"`).
    Any,
}

impl ParamKind {
    /// Whether a parameter of this kind takes `value`. Templates
    /// ([`wisdom_yaml::is_template`]) are taken wherever a str is not.
    pub fn accepts(self, value: &Value) -> bool {
        let template = || matches!(value, Value::Str(s) if wisdom_yaml::is_template(s));
        match self {
            ParamKind::Any => true,
            ParamKind::Str => matches!(value, Value::Str(_) | Value::Int(_) | Value::Float(_)),
            ParamKind::Bool => matches!(value, Value::Bool(_)) || template(),
            ParamKind::Int => {
                matches!(value, Value::Int(_))
                    || template()
                    || matches!(value, Value::Str(s) if s.parse::<i64>().is_ok())
            }
            ParamKind::List => matches!(value, Value::Seq(_)) || template(),
            ParamKind::Map => matches!(value, Value::Map(_)) || template(),
        }
    }
}

/// Schema for a single module parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name as written in YAML.
    pub name: &'static str,
    /// Whether the module requires the parameter.
    pub required: bool,
    /// Expected value shape.
    pub kind: ParamKind,
}

const fn req(name: &'static str, kind: ParamKind) -> ParamSpec {
    ParamSpec {
        name,
        required: true,
        kind,
    }
}

const fn opt(name: &'static str, kind: ParamKind) -> ParamSpec {
    ParamSpec {
        name,
        required: false,
        kind,
    }
}

/// Schema and identity of one Ansible module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleSpec {
    /// Fully qualified collection name, e.g. `ansible.builtin.apt`.
    pub fqcn: &'static str,
    /// Short alias, e.g. `apt` (empty when the module has no legacy alias).
    pub short: &'static str,
    /// Parameter schemas.
    pub params: &'static [ParamSpec],
    /// Whether the module accepts a free-form command string instead of a
    /// parameter mapping (`command`, `shell`, `raw`, `script`).
    pub free_form: bool,
    /// Equivalence class label for Ansible Aware partial credit.
    pub equiv_class: Option<&'static str>,
}

use ParamKind::{Any, Bool, Int, List, Map, Str};

macro_rules! module {
    ($fqcn:literal, $short:literal, free_form: $ff:expr, equiv: $eq:expr, [$($p:expr),* $(,)?]) => {
        ModuleSpec {
            fqcn: $fqcn,
            short: $short,
            params: &[$($p),*],
            free_form: $ff,
            equiv_class: $eq,
        }
    };
}

/// Every module known to the registry.
///
/// The selection mirrors what dominates real Galaxy content: package
/// management, services, files, users, networking appliances, cloud and
/// container modules.
pub static MODULES: &[ModuleSpec] = &[
    // ---- package management -------------------------------------------------
    module!("ansible.builtin.apt", "apt", free_form: false, equiv: Some("pkg"), [
        req("name", Any), opt("state", Str), opt("update_cache", Bool),
        opt("cache_valid_time", Int), opt("install_recommends", Bool), opt("force", Bool),
    ]),
    module!("ansible.builtin.yum", "yum", free_form: false, equiv: Some("pkg"), [
        req("name", Any), opt("state", Str), opt("enablerepo", Str),
        opt("disablerepo", Str), opt("update_cache", Bool),
    ]),
    module!("ansible.builtin.dnf", "dnf", free_form: false, equiv: Some("pkg"), [
        req("name", Any), opt("state", Str), opt("enablerepo", Str), opt("update_cache", Bool),
    ]),
    module!("ansible.builtin.package", "package", free_form: false, equiv: Some("pkg"), [
        req("name", Any), opt("state", Str), opt("use", Str),
    ]),
    module!("ansible.builtin.pip", "pip", free_form: false, equiv: None, [
        req("name", Any), opt("state", Str), opt("virtualenv", Str),
        opt("executable", Str), opt("extra_args", Str), opt("version", Any),
    ]),
    module!("community.general.npm", "npm", free_form: false, equiv: None, [
        opt("name", Str), opt("path", Str), opt("global", Bool), opt("state", Str),
        opt("production", Bool),
    ]),
    module!("community.general.gem", "gem", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("user_install", Bool), opt("version", Any),
    ]),
    module!("community.general.snap", "snap", free_form: false, equiv: None, [
        req("name", Any), opt("state", Str), opt("classic", Bool), opt("channel", Str),
    ]),
    module!("ansible.builtin.apt_repository", "apt_repository", free_form: false, equiv: None, [
        req("repo", Str), opt("state", Str), opt("filename", Str), opt("update_cache", Bool),
    ]),
    module!("ansible.builtin.apt_key", "apt_key", free_form: false, equiv: None, [
        opt("url", Str), opt("id", Str), opt("state", Str), opt("keyserver", Str),
    ]),
    module!("ansible.builtin.yum_repository", "yum_repository", free_form: false, equiv: None, [
        req("name", Str), opt("description", Str), opt("baseurl", Str),
        opt("gpgcheck", Bool), opt("gpgkey", Str), opt("enabled", Bool), opt("state", Str),
    ]),
    // ---- services -----------------------------------------------------------
    module!("ansible.builtin.service", "service", free_form: false, equiv: Some("svc"), [
        req("name", Str), opt("state", Str), opt("enabled", Bool), opt("daemon_reload", Bool),
    ]),
    module!("ansible.builtin.systemd", "systemd", free_form: false, equiv: Some("svc"), [
        opt("name", Str), opt("state", Str), opt("enabled", Bool),
        opt("daemon_reload", Bool), opt("masked", Bool), opt("scope", Str),
    ]),
    module!("ansible.builtin.cron", "cron", free_form: false, equiv: None, [
        req("name", Str), opt("minute", Any), opt("hour", Any), opt("day", Any),
        opt("month", Any), opt("weekday", Any), opt("job", Str), opt("state", Str),
        opt("user", Str), opt("special_time", Str),
    ]),
    // ---- files --------------------------------------------------------------
    module!("ansible.builtin.copy", "copy", free_form: false, equiv: Some("filexfer"), [
        opt("src", Str), req("dest", Str), opt("owner", Str), opt("group", Str),
        opt("mode", Any), opt("content", Str), opt("backup", Bool), opt("remote_src", Bool),
        opt("validate", Str), opt("directory_mode", Any), opt("force", Bool),
    ]),
    module!("ansible.builtin.template", "template", free_form: false, equiv: Some("filexfer"), [
        req("src", Str), req("dest", Str), opt("owner", Str), opt("group", Str),
        opt("mode", Any), opt("backup", Bool), opt("validate", Str), opt("force", Bool),
    ]),
    module!("ansible.builtin.file", "file", free_form: false, equiv: None, [
        req("path", Str), opt("state", Str), opt("owner", Str), opt("group", Str),
        opt("mode", Any), opt("recurse", Bool), opt("src", Str), opt("force", Bool),
    ]),
    module!("ansible.builtin.lineinfile", "lineinfile", free_form: false, equiv: None, [
        req("path", Str), opt("line", Str), opt("regexp", Str), opt("state", Str),
        opt("insertafter", Str), opt("insertbefore", Str), opt("create", Bool),
        opt("backup", Bool), opt("owner", Str), opt("group", Str), opt("mode", Any),
    ]),
    module!("ansible.builtin.blockinfile", "blockinfile", free_form: false, equiv: None, [
        req("path", Str), opt("block", Str), opt("state", Str), opt("marker", Str),
        opt("insertafter", Str), opt("create", Bool), opt("backup", Bool),
    ]),
    module!("ansible.builtin.replace", "replace", free_form: false, equiv: None, [
        req("path", Str), req("regexp", Str), opt("replace", Str), opt("backup", Bool),
    ]),
    module!("ansible.builtin.fetch", "fetch", free_form: false, equiv: None, [
        req("src", Str), req("dest", Str), opt("flat", Bool), opt("fail_on_missing", Bool),
    ]),
    module!("ansible.builtin.stat", "stat", free_form: false, equiv: None, [
        req("path", Str), opt("follow", Bool), opt("get_checksum", Bool),
    ]),
    module!("ansible.builtin.find", "find", free_form: false, equiv: None, [
        req("paths", Any), opt("patterns", Any), opt("recurse", Bool), opt("age", Str),
        opt("size", Str), opt("file_type", Str), opt("hidden", Bool),
    ]),
    module!("ansible.builtin.tempfile", "tempfile", free_form: false, equiv: None, [
        opt("state", Str), opt("suffix", Str), opt("prefix", Str),
    ]),
    module!("ansible.builtin.assemble", "assemble", free_form: false, equiv: None, [
        req("src", Str), req("dest", Str), opt("remote_src", Bool), opt("delimiter", Str),
    ]),
    module!("ansible.builtin.slurp", "slurp", free_form: false, equiv: None, [
        req("src", Str),
    ]),
    module!("ansible.builtin.unarchive", "unarchive", free_form: false, equiv: None, [
        req("src", Str), req("dest", Str), opt("remote_src", Bool), opt("creates", Str),
        opt("owner", Str), opt("group", Str), opt("mode", Any), opt("extra_opts", List),
    ]),
    module!("ansible.builtin.get_url", "get_url", free_form: false, equiv: None, [
        req("url", Str), req("dest", Str), opt("mode", Any), opt("owner", Str),
        opt("group", Str), opt("checksum", Str), opt("validate_certs", Bool),
        opt("timeout", Int), opt("force", Bool),
    ]),
    module!("ansible.posix.synchronize", "synchronize", free_form: false, equiv: None, [
        req("src", Str), req("dest", Str), opt("delete", Bool), opt("recursive", Bool),
        opt("rsync_opts", List), opt("mode", Str),
    ]),
    module!("ansible.posix.authorized_key", "authorized_key", free_form: false, equiv: None, [
        req("user", Str), req("key", Str), opt("state", Str), opt("exclusive", Bool),
    ]),
    module!("ansible.builtin.known_hosts", "known_hosts", free_form: false, equiv: None, [
        req("name", Str), opt("key", Str), opt("state", Str), opt("path", Str),
    ]),
    // ---- commands -----------------------------------------------------------
    module!("ansible.builtin.command", "command", free_form: true, equiv: Some("cmd"), [
        opt("cmd", Str), opt("argv", List), opt("chdir", Str), opt("creates", Str),
        opt("removes", Str), opt("stdin", Str),
    ]),
    module!("ansible.builtin.shell", "shell", free_form: true, equiv: Some("cmd"), [
        opt("cmd", Str), opt("chdir", Str), opt("creates", Str), opt("removes", Str),
        opt("executable", Str),
    ]),
    module!("ansible.builtin.raw", "raw", free_form: true, equiv: Some("cmd"), [
        opt("executable", Str),
    ]),
    module!("ansible.builtin.script", "script", free_form: true, equiv: None, [
        opt("cmd", Str), opt("chdir", Str), opt("creates", Str), opt("executable", Str),
    ]),
    // ---- users and groups ---------------------------------------------------
    module!("ansible.builtin.user", "user", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("groups", Any), opt("group", Str),
        opt("shell", Str), opt("home", Str), opt("createhome", Bool), opt("system", Bool),
        opt("password", Str), opt("append", Bool), opt("uid", Int), opt("comment", Str),
    ]),
    module!("ansible.builtin.group", "group", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("gid", Int), opt("system", Bool),
    ]),
    // ---- system -------------------------------------------------------------
    module!("ansible.builtin.hostname", "hostname", free_form: false, equiv: None, [
        req("name", Str), opt("use", Str),
    ]),
    module!("ansible.builtin.reboot", "reboot", free_form: false, equiv: None, [
        opt("reboot_timeout", Int), opt("msg", Str), opt("test_command", Str),
    ]),
    module!("ansible.builtin.wait_for", "wait_for", free_form: false, equiv: None, [
        opt("host", Str), opt("port", Int), opt("delay", Int), opt("timeout", Int),
        opt("state", Str), opt("path", Str), opt("search_regex", Str),
    ]),
    module!("ansible.builtin.wait_for_connection", "wait_for_connection", free_form: false, equiv: None, [
        opt("delay", Int), opt("timeout", Int),
    ]),
    module!("ansible.posix.sysctl", "sysctl", free_form: false, equiv: None, [
        req("name", Str), opt("value", Any), opt("state", Str), opt("reload", Bool),
        opt("sysctl_set", Bool), opt("sysctl_file", Str),
    ]),
    module!("ansible.posix.seboolean", "seboolean", free_form: false, equiv: None, [
        req("name", Str), req("state", Bool), opt("persistent", Bool),
    ]),
    module!("ansible.posix.selinux", "selinux", free_form: false, equiv: None, [
        opt("policy", Str), req("state", Str),
    ]),
    module!("ansible.posix.mount", "mount", free_form: false, equiv: None, [
        req("path", Str), opt("src", Str), opt("fstype", Str), opt("opts", Str),
        req("state", Str), opt("boot", Bool),
    ]),
    module!("community.general.timezone", "timezone", free_form: false, equiv: None, [
        req("name", Str),
    ]),
    module!("community.general.locale_gen", "locale_gen", free_form: false, equiv: None, [
        req("name", Any), opt("state", Str),
    ]),
    module!("community.general.modprobe", "modprobe", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("params", Str),
    ]),
    module!("community.general.alternatives", "alternatives", free_form: false, equiv: None, [
        req("name", Str), req("path", Str), opt("link", Str), opt("priority", Int),
    ]),
    module!("community.general.ufw", "ufw", free_form: false, equiv: None, [
        opt("rule", Str), opt("port", Any), opt("proto", Str), opt("state", Str),
        opt("direction", Str), opt("from_ip", Str), opt("policy", Str), opt("delete", Bool),
    ]),
    module!("ansible.posix.firewalld", "firewalld", free_form: false, equiv: None, [
        opt("service", Str), opt("port", Str), opt("zone", Str), req("state", Str),
        opt("permanent", Bool), opt("immediate", Bool), opt("rich_rule", Str),
    ]),
    module!("ansible.builtin.iptables", "iptables", free_form: false, equiv: None, [
        opt("chain", Str), opt("protocol", Str), opt("destination_port", Any),
        opt("jump", Str), opt("state", Str), opt("comment", Str), opt("source", Str),
    ]),
    // ---- source control & downloads ----------------------------------------
    module!("ansible.builtin.git", "git", free_form: false, equiv: None, [
        req("repo", Str), req("dest", Str), opt("version", Any), opt("update", Bool),
        opt("force", Bool), opt("depth", Int), opt("accept_hostkey", Bool), opt("key_file", Str),
    ]),
    module!("ansible.builtin.subversion", "subversion", free_form: false, equiv: None, [
        req("repo", Str), req("dest", Str), opt("revision", Any), opt("update", Bool),
    ]),
    // ---- control flow & utility ---------------------------------------------
    module!("ansible.builtin.debug", "debug", free_form: false, equiv: None, [
        opt("msg", Any), opt("var", Str), opt("verbosity", Int),
    ]),
    module!("ansible.builtin.set_fact", "set_fact", free_form: false, equiv: None, [
        opt("cacheable", Bool),
    ]),
    module!("ansible.builtin.assert", "assert", free_form: false, equiv: None, [
        req("that", Any), opt("fail_msg", Str), opt("success_msg", Str), opt("quiet", Bool),
    ]),
    module!("ansible.builtin.fail", "fail", free_form: false, equiv: None, [
        opt("msg", Str),
    ]),
    module!("ansible.builtin.pause", "pause", free_form: false, equiv: None, [
        opt("seconds", Int), opt("minutes", Int), opt("prompt", Str),
    ]),
    module!("ansible.builtin.ping", "ping", free_form: false, equiv: None, [
        opt("data", Str),
    ]),
    module!("ansible.builtin.setup", "setup", free_form: false, equiv: None, [
        opt("gather_subset", Any), opt("filter", Str),
    ]),
    module!("ansible.builtin.gather_facts", "gather_facts", free_form: false, equiv: None, [
        opt("parallel", Bool),
    ]),
    module!("ansible.builtin.include_tasks", "include_tasks", free_form: false, equiv: Some("include"), [
        opt("file", Str), opt("apply", Map),
    ]),
    module!("ansible.builtin.import_tasks", "import_tasks", free_form: false, equiv: Some("include"), [
        opt("file", Str),
    ]),
    module!("ansible.builtin.include_role", "include_role", free_form: false, equiv: Some("incrole"), [
        req("name", Str), opt("tasks_from", Str), opt("vars_from", Str), opt("public", Bool),
    ]),
    module!("ansible.builtin.import_role", "import_role", free_form: false, equiv: Some("incrole"), [
        req("name", Str), opt("tasks_from", Str),
    ]),
    module!("ansible.builtin.include_vars", "include_vars", free_form: false, equiv: None, [
        opt("file", Str), opt("dir", Str), opt("name", Str),
    ]),
    module!("ansible.builtin.add_host", "add_host", free_form: false, equiv: None, [
        req("name", Str), opt("groups", Any),
    ]),
    module!("ansible.builtin.group_by", "group_by", free_form: false, equiv: None, [
        req("key", Str), opt("parents", Any),
    ]),
    module!("ansible.builtin.meta", "meta", free_form: true, equiv: None, [
    ]),
    module!("ansible.builtin.uri", "uri", free_form: false, equiv: None, [
        req("url", Str), opt("method", Str), opt("body", Any), opt("body_format", Str),
        opt("status_code", Any), opt("return_content", Bool), opt("headers", Map),
        opt("validate_certs", Bool), opt("timeout", Int), opt("user", Str), opt("password", Str),
    ]),
    // ---- databases ----------------------------------------------------------
    module!("community.mysql.mysql_db", "mysql_db", free_form: false, equiv: None, [
        req("name", Any), opt("state", Str), opt("login_user", Str),
        opt("login_password", Str), opt("encoding", Str), opt("collation", Str),
    ]),
    module!("community.mysql.mysql_user", "mysql_user", free_form: false, equiv: None, [
        req("name", Str), opt("password", Str), opt("priv", Str), opt("host", Str),
        opt("state", Str), opt("login_user", Str), opt("login_password", Str),
    ]),
    module!("community.postgresql.postgresql_db", "postgresql_db", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("owner", Str), opt("encoding", Str),
        opt("template", Str),
    ]),
    module!("community.postgresql.postgresql_user", "postgresql_user", free_form: false, equiv: None, [
        req("name", Str), opt("password", Str), opt("db", Str), opt("priv", Str),
        opt("state", Str), opt("role_attr_flags", Str),
    ]),
    // ---- containers ----------------------------------------------------------
    module!("community.docker.docker_container", "docker_container", free_form: false, equiv: None, [
        req("name", Str), opt("image", Str), opt("state", Str), opt("ports", List),
        opt("volumes", List), opt("env", Map), opt("restart_policy", Str),
        opt("networks", List), opt("detach", Bool), opt("recreate", Bool),
    ]),
    module!("community.docker.docker_image", "docker_image", free_form: false, equiv: None, [
        req("name", Str), opt("source", Str), opt("tag", Str), opt("state", Str),
        opt("build", Map), opt("force_source", Bool),
    ]),
    module!("community.docker.docker_network", "docker_network", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("driver", Str),
    ]),
    module!("kubernetes.core.k8s", "k8s", free_form: false, equiv: None, [
        opt("state", Str), opt("definition", Map), opt("src", Str), opt("namespace", Str),
        opt("kind", Str), opt("name", Str), opt("api_version", Str), opt("wait", Bool),
    ]),
    module!("kubernetes.core.helm", "helm", free_form: false, equiv: None, [
        req("name", Str), opt("chart_ref", Str), opt("release_namespace", Str),
        opt("state", Str), opt("values", Map), opt("create_namespace", Bool),
    ]),
    // ---- cloud ----------------------------------------------------------------
    module!("amazon.aws.ec2_instance", "ec2_instance", free_form: false, equiv: None, [
        opt("name", Str), opt("instance_type", Str), opt("image_id", Str),
        opt("key_name", Str), opt("state", Str), opt("vpc_subnet_id", Str),
        opt("security_group", Str), opt("tags", Map), opt("wait", Bool), opt("region", Str),
    ]),
    module!("amazon.aws.s3_bucket", "s3_bucket", free_form: false, equiv: None, [
        req("name", Str), opt("state", Str), opt("versioning", Bool), opt("policy", Any),
        opt("tags", Map), opt("region", Str),
    ]),
    module!("amazon.aws.ec2_security_group", "ec2_security_group", free_form: false, equiv: None, [
        req("name", Str), opt("description", Str), opt("rules", List), opt("state", Str),
        opt("vpc_id", Str), opt("region", Str),
    ]),
    // ---- network appliances ---------------------------------------------------
    module!("vyos.vyos.vyos_facts", "vyos_facts", free_form: false, equiv: None, [
        opt("gather_subset", Any), opt("gather_network_resources", Any),
    ]),
    module!("vyos.vyos.vyos_config", "vyos_config", free_form: false, equiv: None, [
        opt("lines", List), opt("src", Str), opt("backup", Bool), opt("save", Bool),
        opt("match", Str), opt("comment", Str),
    ]),
    module!("cisco.ios.ios_facts", "ios_facts", free_form: false, equiv: None, [
        opt("gather_subset", Any), opt("gather_network_resources", Any),
    ]),
    module!("cisco.ios.ios_config", "ios_config", free_form: false, equiv: None, [
        opt("lines", List), opt("parents", List), opt("src", Str), opt("backup", Bool),
        opt("save_when", Str), opt("match", Str),
    ]),
    module!("junipernetworks.junos.junos_config", "junos_config", free_form: false, equiv: None, [
        opt("lines", List), opt("src", Str), opt("backup", Bool), opt("confirm_commit", Bool),
        opt("comment", Str),
    ]),
    // ---- windows ---------------------------------------------------------------
    module!("ansible.windows.win_service", "win_service", free_form: false, equiv: Some("svc"), [
        req("name", Str), opt("state", Str), opt("start_mode", Str),
    ]),
    module!("ansible.windows.win_copy", "win_copy", free_form: false, equiv: Some("filexfer"), [
        opt("src", Str), req("dest", Str), opt("content", Str), opt("backup", Bool),
    ]),
    module!("ansible.windows.win_package", "win_package", free_form: false, equiv: Some("pkg"), [
        opt("path", Str), opt("product_id", Str), opt("state", Str), opt("arguments", Any),
    ]),
];

/// Lookup tables built once over [`MODULES`].
#[derive(Debug)]
pub struct ModuleRegistry {
    by_fqcn: HashMap<&'static str, &'static ModuleSpec>,
    by_short: HashMap<&'static str, &'static ModuleSpec>,
}

impl ModuleRegistry {
    /// The process-wide registry instance.
    ///
    /// # Examples
    ///
    /// ```
    /// use wisdom_ansible::ModuleRegistry;
    ///
    /// let reg = ModuleRegistry::global();
    /// assert_eq!(reg.resolve_fqcn("copy"), Some("ansible.builtin.copy"));
    /// ```
    pub fn global() -> &'static ModuleRegistry {
        static REGISTRY: OnceLock<ModuleRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut by_fqcn = HashMap::new();
            let mut by_short = HashMap::new();
            for m in MODULES {
                let prev = by_fqcn.insert(m.fqcn, m);
                debug_assert!(prev.is_none(), "duplicate fqcn {}", m.fqcn);
                if !m.short.is_empty() {
                    let prev = by_short.insert(m.short, m);
                    debug_assert!(prev.is_none(), "duplicate short name {}", m.short);
                }
            }
            ModuleRegistry { by_fqcn, by_short }
        })
    }

    /// Looks a module up by FQCN or short alias.
    pub fn get(&self, name: &str) -> Option<&'static ModuleSpec> {
        self.by_fqcn
            .get(name)
            .or_else(|| self.by_short.get(name))
            .copied()
    }

    /// Resolves any module spelling to its fully qualified collection name,
    /// e.g. `copy` → `ansible.builtin.copy` (the normalization step of the
    /// Ansible Aware metric).
    pub fn resolve_fqcn(&self, name: &str) -> Option<&'static str> {
        self.get(name).map(|m| m.fqcn)
    }

    /// Whether `key` denotes a known module (by either spelling).
    pub fn is_module(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Returns the equivalence-class label shared by near-interchangeable
    /// modules (e.g. `command`/`shell`), if any.
    pub fn equiv_class(&self, name: &str) -> Option<&'static str> {
        self.get(name).and_then(|m| m.equiv_class)
    }

    /// Whether two module spellings are the same module or members of the
    /// same equivalence class.
    pub fn same_or_equivalent(&self, a: &str, b: &str) -> Equivalence {
        match (self.resolve_fqcn(a), self.resolve_fqcn(b)) {
            (Some(fa), Some(fb)) if fa == fb => Equivalence::Same,
            (Some(_), Some(_)) => {
                let ca = self.equiv_class(a);
                if ca.is_some() && ca == self.equiv_class(b) {
                    Equivalence::Equivalent
                } else {
                    Equivalence::Different
                }
            }
            _ => {
                if a == b {
                    Equivalence::Same
                } else {
                    Equivalence::Different
                }
            }
        }
    }

    /// Iterates over all registered modules.
    pub fn iter(&self) -> impl Iterator<Item = &'static ModuleSpec> + '_ {
        self.by_fqcn.values().copied()
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.by_fqcn.len()
    }

    /// Whether the registry is empty (never true for the global registry).
    pub fn is_empty(&self) -> bool {
        self.by_fqcn.is_empty()
    }
}

/// Result of comparing two module names under the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// Identical modules (possibly different spellings of the same FQCN).
    Same,
    /// Distinct modules in the same equivalence class (partial credit).
    Equivalent,
    /// Unrelated modules.
    Different,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_without_duplicates() {
        let reg = ModuleRegistry::global();
        assert_eq!(reg.len(), MODULES.len());
        assert!(!reg.is_empty());
    }

    #[test]
    fn short_name_resolution() {
        let reg = ModuleRegistry::global();
        assert_eq!(reg.resolve_fqcn("apt"), Some("ansible.builtin.apt"));
        assert_eq!(
            reg.resolve_fqcn("ansible.builtin.apt"),
            Some("ansible.builtin.apt")
        );
        assert_eq!(
            reg.resolve_fqcn("firewalld"),
            Some("ansible.posix.firewalld")
        );
        assert_eq!(reg.resolve_fqcn("nonexistent_module"), None);
    }

    #[test]
    fn equivalence_classes_match_paper() {
        let reg = ModuleRegistry::global();
        assert_eq!(
            reg.same_or_equivalent("command", "shell"),
            Equivalence::Equivalent
        );
        assert_eq!(
            reg.same_or_equivalent("copy", "template"),
            Equivalence::Equivalent
        );
        assert_eq!(
            reg.same_or_equivalent("package", "apt"),
            Equivalence::Equivalent
        );
        assert_eq!(
            reg.same_or_equivalent("dnf", "yum"),
            Equivalence::Equivalent
        );
        assert_eq!(
            reg.same_or_equivalent("apt", "ansible.builtin.apt"),
            Equivalence::Same
        );
        assert_eq!(
            reg.same_or_equivalent("apt", "service"),
            Equivalence::Different
        );
        assert_eq!(
            reg.same_or_equivalent("copy", "user"),
            Equivalence::Different
        );
    }

    #[test]
    fn unknown_names_compare_by_string() {
        let reg = ModuleRegistry::global();
        assert_eq!(
            reg.same_or_equivalent("custom.ns.thing", "custom.ns.thing"),
            Equivalence::Same
        );
        assert_eq!(
            reg.same_or_equivalent("custom.ns.thing", "other.ns.thing"),
            Equivalence::Different
        );
    }

    #[test]
    fn free_form_flags() {
        let reg = ModuleRegistry::global();
        assert!(reg.get("shell").unwrap().free_form);
        assert!(reg.get("command").unwrap().free_form);
        assert!(!reg.get("apt").unwrap().free_form);
    }

    #[test]
    fn every_module_has_valid_fqcn_shape() {
        for m in MODULES {
            let parts: Vec<&str> = m.fqcn.split('.').collect();
            assert!(
                parts.len() >= 3,
                "fqcn {} should be ns.collection.module",
                m.fqcn
            );
            assert_eq!(parts.last().copied(), Some(m.short), "short of {}", m.fqcn);
        }
    }

    #[test]
    fn required_params_present_in_specs() {
        let reg = ModuleRegistry::global();
        let apt = reg.get("apt").unwrap();
        assert!(apt.params.iter().any(|p| p.name == "name" && p.required));
        assert!(apt.params.iter().any(|p| p.name == "state" && !p.required));
    }
}
