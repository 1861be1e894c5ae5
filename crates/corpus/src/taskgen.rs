//! Task generators: produce realistic Ansible tasks with strongly
//! correlated natural-language names, the learnable signal at the heart of
//! the NL→YAML generation problem.

use wisdom_ansible::Task;
use wisdom_prng::Prng;
use wisdom_yaml::{Mapping, Value};

use crate::vocab::{
    name_noise, Platform, Product, DIRECTORIES, DOWNLOAD_URLS, GIT_REPOS, GROUPS, PRODUCTS,
    SYSCTLS, TIMEZONES, USERS, UTIL_PACKAGES,
};

/// Per-file generation context: platform, module spelling style, and
/// source-dependent quirks.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx {
    /// Distro family of the file.
    pub platform: Platform,
    /// Whether modules are written with their FQCN (Galaxy-quality files)
    /// or short aliases (typical raw GitHub content).
    pub use_fqcn: bool,
    /// Probability that a simple task uses legacy `k=v` string arguments
    /// (historical form found in crawled content, normalized away for the
    /// fine-tuning set).
    pub legacy_kv_chance: f64,
    /// Probability of sprinkling extra keywords (`become`, `when`, `tags`).
    pub keyword_chance: f64,
}

impl FileCtx {
    /// Galaxy-style context: FQCN, no legacy forms.
    pub fn galaxy(rng: &mut Prng) -> Self {
        Self {
            platform: Platform::pick(rng),
            use_fqcn: true,
            legacy_kv_chance: 0.0,
            keyword_chance: 0.35,
        }
    }

    /// Raw crawled-content context: mixed spellings and historical forms.
    pub fn crawled(rng: &mut Prng) -> Self {
        Self {
            platform: Platform::pick(rng),
            use_fqcn: rng.chance(0.4),
            legacy_kv_chance: 0.15,
            keyword_chance: 0.3,
        }
    }
}

/// The kinds of tasks the scenario generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Install a product's package.
    InstallProduct,
    /// Install a list of utility packages with a loop.
    InstallUtils,
    /// Update the package cache.
    UpdateCache,
    /// Deploy the product's configuration file (template/copy + notify).
    DeployConfig,
    /// Start + enable the product's service.
    EnableService,
    /// Restart the product's service.
    RestartService,
    /// Open the product's port in the firewall.
    OpenFirewall,
    /// Wait for the product's port to come up.
    WaitForPort,
    /// Create an application directory.
    CreateDirectory,
    /// Clone a git repository.
    GitClone,
    /// Download a release artifact.
    Download,
    /// Unpack a downloaded archive.
    Unarchive,
    /// Create a user account.
    CreateUser,
    /// Create a group.
    CreateGroup,
    /// Install an SSH authorized key.
    AuthorizedKey,
    /// Set a sysctl parameter.
    Sysctl,
    /// Edit a config line (lineinfile).
    ConfigLine,
    /// Install a cron job.
    CronJob,
    /// Set the timezone.
    SetTimezone,
    /// Set the hostname.
    SetHostname,
    /// Run a docker container.
    DockerContainer,
    /// Create a database.
    CreateDatabase,
    /// Create a database user.
    CreateDbUser,
    /// Gather facts from a network device.
    NetworkFacts,
    /// Push configuration lines to a network device.
    NetworkConfig,
    /// Print a debug message.
    DebugMsg,
}

/// Deterministically generates one task of the given kind.
pub fn generate_task(kind: TaskKind, product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let mut task = match kind {
        TaskKind::InstallProduct => install_product(product, ctx, rng),
        TaskKind::InstallUtils => install_utils(ctx, rng),
        TaskKind::UpdateCache => update_cache(ctx, rng),
        TaskKind::DeployConfig => deploy_config(product, ctx, rng),
        TaskKind::EnableService => enable_service(product, ctx, rng),
        TaskKind::RestartService => restart_service(product, ctx, rng),
        TaskKind::OpenFirewall => open_firewall(product, ctx, rng),
        TaskKind::WaitForPort => wait_for_port(product, ctx, rng),
        TaskKind::CreateDirectory => create_directory(ctx, rng),
        TaskKind::GitClone => git_clone(ctx, rng),
        TaskKind::Download => download(ctx, rng),
        TaskKind::Unarchive => unarchive(ctx, rng),
        TaskKind::CreateUser => create_user(ctx, rng),
        TaskKind::CreateGroup => create_group(ctx, rng),
        TaskKind::AuthorizedKey => authorized_key(ctx, rng),
        TaskKind::Sysctl => sysctl(ctx, rng),
        TaskKind::ConfigLine => config_line(product, ctx, rng),
        TaskKind::CronJob => cron_job(ctx, rng),
        TaskKind::SetTimezone => set_timezone(ctx, rng),
        TaskKind::SetHostname => set_hostname(ctx, rng),
        TaskKind::DockerContainer => docker_container(ctx, rng),
        TaskKind::CreateDatabase => create_database(product, ctx, rng),
        TaskKind::CreateDbUser => create_db_user(product, ctx, rng),
        TaskKind::NetworkFacts => network_facts(ctx, rng),
        TaskKind::NetworkConfig => network_config(ctx, rng),
        TaskKind::DebugMsg => debug_msg(rng),
    };
    maybe_add_keywords(&mut task, kind, ctx, rng);
    maybe_legacy_kv(&mut task, ctx, rng);
    task
}

fn module_name(short: &str, fqcn: &str, ctx: &FileCtx) -> String {
    if ctx.use_fqcn { fqcn } else { short }.to_string()
}

fn str_val(s: impl Into<String>) -> Value<'static> {
    Value::from(s.into())
}

fn map(pairs: Vec<(&str, Value<'static>)>) -> Value<'static> {
    let mut m = Mapping::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Map(m)
}

fn new_task(name: String, module: String, args: Value<'static>) -> Task {
    Task {
        name: Some(name),
        module,
        args,
        keywords: Mapping::new(),
    }
}

fn install_product(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let pkg = ctx.platform.package_of(product);
    let templates = [
        format!("Install {}", product.label),
        format!("Install {pkg} package"),
        format!("Ensure {} is installed", product.label),
        format!("Install the latest version of {}", product.label),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let latest = name.contains("latest") || rng.chance(0.2);
    let short = ctx.platform.package_module(rng);
    let fqcn = format!("ansible.builtin.{short}");
    let mut pairs = vec![
        ("name", str_val(pkg)),
        ("state", str_val(if latest { "latest" } else { "present" })),
    ];
    if short == "apt" && rng.chance(0.4) {
        pairs.push(("update_cache", Value::Bool(true)));
    }
    new_task(name, module_name(short, &fqcn, ctx), map(pairs))
}

fn install_utils(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let count = rng.range_usize(2, 5);
    let idx = rng.sample_indices(UTIL_PACKAGES.len(), count);
    let pkgs: Vec<&str> = idx.iter().map(|&i| UTIL_PACKAGES[i]).collect();
    let templates = [
        "Install common packages".to_string(),
        "Install required packages".to_string(),
        format!("Install {} and friends", pkgs[0]),
        "Install base utilities".to_string(),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let short = ctx.platform.package_module(rng);
    let fqcn = format!("ansible.builtin.{short}");
    let args = map(vec![
        (
            "name",
            Value::Seq(pkgs.iter().map(|p| str_val(*p)).collect()),
        ),
        ("state", str_val("present")),
    ]);
    new_task(name, module_name(short, &fqcn, ctx), args)
}

fn update_cache(ctx: &FileCtx, rng: &mut Prng) -> Task {
    match ctx.platform {
        Platform::RedHat => {
            let name = name_noise("Update yum cache", rng);
            new_task(
                name,
                module_name("yum", "ansible.builtin.yum", ctx),
                map(vec![
                    ("name", str_val("*")),
                    ("state", str_val("latest")),
                    ("update_cache", Value::Bool(true)),
                ]),
            )
        }
        _ => {
            let name = name_noise("Update apt cache", rng);
            new_task(
                name,
                module_name("apt", "ansible.builtin.apt", ctx),
                map(vec![
                    ("update_cache", Value::Bool(true)),
                    ("cache_valid_time", Value::Int(3600)),
                    ("name", str_val("*")),
                    ("state", str_val("present")),
                ]),
            )
        }
    }
}

fn deploy_config(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let dest = if product.config_path.is_empty() {
        "/etc/app/app.conf"
    } else {
        product.config_path
    };
    let use_template = rng.chance(0.65);
    let templates = [
        format!("Deploy {} configuration", product.label),
        format!("Copy {} config file", product.label),
        format!("Configure {}", product.label),
        format!("Write the {} config file", product.label),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let base = dest.rsplit('/').next().expect("path has a basename");
    let (short, fqcn, src) = if use_template {
        ("template", "ansible.builtin.template", format!("{base}.j2"))
    } else {
        ("copy", "ansible.builtin.copy", format!("files/{base}"))
    };
    let mut pairs = vec![
        ("src", str_val(src)),
        ("dest", str_val(dest)),
        ("owner", str_val("root")),
        ("group", str_val("root")),
        ("mode", str_val("0644")),
    ];
    if rng.chance(0.3) {
        pairs.push(("backup", Value::Bool(true)));
    }
    let mut t = new_task(name, module_name(short, fqcn, ctx), map(pairs));
    if !product.service.is_empty() && rng.chance(0.7) {
        t.keywords.insert(
            "notify".to_string(),
            str_val(format!("restart {}", product.service)),
        );
    }
    t
}

fn enable_service(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let svc = if product.service.is_empty() {
        "app"
    } else {
        product.service
    };
    let templates = [
        format!("Start {svc} service"),
        format!("Start and enable {svc}"),
        format!("Ensure {svc} is running"),
        format!("Enable and start the {} service", product.label),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let (short, fqcn) = if rng.chance(0.5) {
        ("service", "ansible.builtin.service")
    } else {
        ("systemd", "ansible.builtin.systemd")
    };
    let mut pairs = vec![("name", str_val(svc)), ("state", str_val("started"))];
    if name.to_lowercase().contains("enable") || rng.chance(0.6) {
        pairs.push(("enabled", Value::Bool(true)));
    }
    new_task(name, module_name(short, fqcn, ctx), map(pairs))
}

fn restart_service(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let svc = if product.service.is_empty() {
        "app"
    } else {
        product.service
    };
    let templates = [
        format!("Restart {svc}"),
        format!("Restart {svc} service"),
        format!("Reload {svc} configuration"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let state = if name.to_lowercase().contains("reload") {
        "reloaded"
    } else {
        "restarted"
    };
    let (short, fqcn) = if rng.chance(0.5) {
        ("service", "ansible.builtin.service")
    } else {
        ("systemd", "ansible.builtin.systemd")
    };
    new_task(
        name,
        module_name(short, fqcn, ctx),
        map(vec![("name", str_val(svc)), ("state", str_val(state))]),
    )
}

fn open_firewall(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let port = if product.port == 0 {
        8080
    } else {
        product.port
    };
    let templates = [
        format!("Open port {port} in the firewall"),
        format!("Allow {} traffic", product.label),
        format!("Open firewall for {}", product.label),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    match ctx.platform {
        Platform::RedHat => new_task(
            name,
            module_name("firewalld", "ansible.posix.firewalld", ctx),
            map(vec![
                ("port", str_val(format!("{port}/tcp"))),
                ("permanent", Value::Bool(true)),
                ("immediate", Value::Bool(true)),
                ("state", str_val("enabled")),
            ]),
        ),
        _ => new_task(
            name,
            module_name("ufw", "community.general.ufw", ctx),
            map(vec![
                ("rule", str_val("allow")),
                ("port", Value::Int(i64::from(port))),
                ("proto", str_val("tcp")),
            ]),
        ),
    }
}

fn wait_for_port(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let port = if product.port == 0 {
        8080
    } else {
        product.port
    };
    let templates = [
        format!("Wait for {} to come up", product.label),
        format!("Wait for port {port} to be open"),
        format!("Check that {} is listening", product.label),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("wait_for", "ansible.builtin.wait_for", ctx),
        map(vec![
            ("port", Value::Int(i64::from(port))),
            ("delay", Value::Int(5)),
            ("timeout", Value::Int(120)),
        ]),
    )
}

fn create_directory(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let dir = *rng.choice(DIRECTORIES);
    let templates = [
        format!("Create {dir} directory"),
        format!("Ensure {dir} exists"),
        format!("Create application directory {dir}"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let mut pairs = vec![
        ("path", str_val(dir)),
        ("state", str_val("directory")),
        ("mode", str_val("0755")),
    ];
    if rng.chance(0.4) {
        let user = *rng.choice(USERS);
        pairs.push(("owner", str_val(user)));
        pairs.push(("group", str_val(user)));
    }
    new_task(
        name,
        module_name("file", "ansible.builtin.file", ctx),
        map(pairs),
    )
}

fn git_clone(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let repo = *rng.choice(GIT_REPOS);
    let dest = *rng.choice(&["/opt/app", "/srv/app", "/home/deploy/app"]);
    let short_name = repo
        .rsplit('/')
        .next()
        .and_then(|s| s.strip_suffix(".git"))
        .unwrap_or("repo");
    let templates = [
        format!("Clone {short_name} repository"),
        format!("Checkout {short_name} source code"),
        format!("Clone the {short_name} repo to {dest}"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let mut pairs = vec![("repo", str_val(repo)), ("dest", str_val(dest))];
    if rng.chance(0.5) {
        pairs.push((
            "version",
            str_val(*rng.choice(&["main", "master", "v1.4.2", "stable"])),
        ));
    }
    if rng.chance(0.3) {
        pairs.push(("update", Value::Bool(true)));
    }
    new_task(
        name,
        module_name("git", "ansible.builtin.git", ctx),
        map(pairs),
    )
}

fn download(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let (url, dest) = *rng.choice(DOWNLOAD_URLS);
    let artifact = url.rsplit('/').next().expect("url has a basename");
    let templates = [
        format!("Download {artifact}"),
        format!("Fetch {artifact} release"),
        format!("Download {artifact} to {dest}"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("get_url", "ansible.builtin.get_url", ctx),
        map(vec![
            ("url", str_val(url)),
            ("dest", str_val(dest)),
            ("mode", str_val("0644")),
        ]),
    )
}

fn unarchive(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let (_, src) = *rng.choice(DOWNLOAD_URLS);
    let dest = *rng.choice(&["/opt/app", "/usr/local", "/srv"]);
    let templates = [
        "Extract the release archive".to_string(),
        format!("Unpack archive to {dest}"),
        "Unarchive the downloaded artifact".to_string(),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("unarchive", "ansible.builtin.unarchive", ctx),
        map(vec![
            ("src", str_val(src)),
            ("dest", str_val(dest)),
            ("remote_src", Value::Bool(true)),
        ]),
    )
}

fn create_user(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let user = *rng.choice(USERS);
    let templates = [
        format!("Create {user} user"),
        format!("Add the {user} user account"),
        format!("Ensure user {user} exists"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let mut pairs = vec![("name", str_val(user)), ("state", str_val("present"))];
    if rng.chance(0.6) {
        pairs.push(("shell", str_val("/bin/bash")));
    }
    if rng.chance(0.4) {
        pairs.push(("groups", str_val(*rng.choice(GROUPS))));
        pairs.push(("append", Value::Bool(true)));
    }
    if rng.chance(0.2) {
        pairs.push(("system", Value::Bool(true)));
    }
    new_task(
        name,
        module_name("user", "ansible.builtin.user", ctx),
        map(pairs),
    )
}

fn create_group(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let group = *rng.choice(GROUPS);
    let templates = [
        format!("Create {group} group"),
        format!("Ensure group {group} exists"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("group", "ansible.builtin.group", ctx),
        map(vec![
            ("name", str_val(group)),
            ("state", str_val("present")),
        ]),
    )
}

fn authorized_key(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let user = *rng.choice(USERS);
    let templates = [
        format!("Install SSH key for {user}"),
        format!("Add authorized key for {user}"),
        format!("Deploy {user} public key"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("authorized_key", "ansible.posix.authorized_key", ctx),
        map(vec![
            ("user", str_val(user)),
            (
                "key",
                str_val(format!("{{{{ lookup('file', 'keys/{user}.pub') }}}}")),
            ),
            ("state", str_val("present")),
        ]),
    )
}

fn sysctl(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let (key, value) = *rng.choice(SYSCTLS);
    let templates = [
        format!("Set {key}"),
        format!("Configure sysctl {key}"),
        format!("Set kernel parameter {key} to {value}"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("sysctl", "ansible.posix.sysctl", ctx),
        map(vec![
            ("name", str_val(key)),
            ("value", str_val(value)),
            ("state", str_val("present")),
            ("reload", Value::Bool(true)),
        ]),
    )
}

fn config_line(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let (path, line, regexp) = if product.service == "sshd" || rng.chance(0.4) {
        (
            "/etc/ssh/sshd_config",
            "PermitRootLogin no",
            "^#?PermitRootLogin",
        )
    } else if product.config_path.is_empty() {
        (
            "/etc/app/app.conf",
            "max_connections = 100",
            "^max_connections",
        )
    } else {
        (product.config_path, "log_level = info", "^log_level")
    };
    let templates = [
        format!(
            "Set {} in {path}",
            line.split([' ', '='])
                .next()
                .expect("line has a first word")
        ),
        format!("Update {path}"),
        format!("Ensure {line} is set"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("lineinfile", "ansible.builtin.lineinfile", ctx),
        map(vec![
            ("path", str_val(path)),
            ("regexp", str_val(regexp)),
            ("line", str_val(line)),
            ("state", str_val("present")),
        ]),
    )
}

fn cron_job(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let (job_name, job_cmd, minute, hour) = *rng.choice(&[
        ("nightly backup", "/opt/scripts/backup.sh", "0", "2"),
        ("log rotation", "/opt/scripts/rotate-logs.sh", "30", "1"),
        ("metrics push", "/usr/local/bin/push-metrics", "*/5", "*"),
        (
            "cleanup temp files",
            "find /tmp -mtime +7 -delete",
            "15",
            "3",
        ),
    ]);
    let templates = [
        format!("Schedule {job_name}"),
        format!("Add cron job for {job_name}"),
        format!("Create {job_name} cron entry"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("cron", "ansible.builtin.cron", ctx),
        map(vec![
            ("name", str_val(job_name)),
            ("minute", str_val(minute)),
            ("hour", str_val(hour)),
            ("job", str_val(job_cmd)),
        ]),
    )
}

fn set_timezone(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let tz = *rng.choice(TIMEZONES);
    let templates = [
        format!("Set timezone to {tz}"),
        format!("Configure the system timezone as {tz}"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("timezone", "community.general.timezone", ctx),
        map(vec![("name", str_val(tz))]),
    )
}

fn set_hostname(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let templates = [
        "Set the hostname".to_string(),
        "Update the hostname".to_string(),
        "Configure machine hostname".to_string(),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("hostname", "ansible.builtin.hostname", ctx),
        map(vec![("name", str_val("{{ inventory_hostname }}"))]),
    )
}

fn docker_container(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let (cname, image, port) = *rng.choice(&[
        ("webapp", "example/webapp:1.4", "8080:8080"),
        ("redis-cache", "redis:7-alpine", "6379:6379"),
        ("reverse-proxy", "nginx:stable", "80:80"),
        ("metrics", "prom/prometheus:latest", "9090:9090"),
    ]);
    let templates = [
        format!("Run {cname} container"),
        format!("Start the {cname} docker container"),
        format!("Deploy {image} container"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    new_task(
        name,
        module_name("docker_container", "community.docker.docker_container", ctx),
        map(vec![
            ("name", str_val(cname)),
            ("image", str_val(image)),
            ("state", str_val("started")),
            ("ports", Value::Seq(vec![str_val(port)])),
            ("restart_policy", str_val("always")),
        ]),
    )
}

fn create_database(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let db = *rng.choice(&["appdb", "inventory", "metrics", "users"]);
    let templates = [
        format!("Create {db} database"),
        format!("Ensure the {db} database exists"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    if product.label == "mysql" {
        new_task(
            name,
            module_name("mysql_db", "community.mysql.mysql_db", ctx),
            map(vec![("name", str_val(db)), ("state", str_val("present"))]),
        )
    } else {
        new_task(
            name,
            module_name("postgresql_db", "community.postgresql.postgresql_db", ctx),
            map(vec![("name", str_val(db)), ("state", str_val("present"))]),
        )
    }
}

fn create_db_user(product: &Product, ctx: &FileCtx, rng: &mut Prng) -> Task {
    let user = *rng.choice(&["appuser", "readonly", "svc_metrics"]);
    let templates = [
        format!("Create database user {user}"),
        format!("Add {user} db account"),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    if product.label == "mysql" {
        new_task(
            name,
            module_name("mysql_user", "community.mysql.mysql_user", ctx),
            map(vec![
                ("name", str_val(user)),
                ("password", str_val("{{ vault_db_password }}")),
                ("priv", str_val("appdb.*:ALL")),
                ("state", str_val("present")),
            ]),
        )
    } else {
        new_task(
            name,
            module_name(
                "postgresql_user",
                "community.postgresql.postgresql_user",
                ctx,
            ),
            map(vec![
                ("name", str_val(user)),
                ("password", str_val("{{ vault_db_password }}")),
                ("db", str_val("appdb")),
                ("state", str_val("present")),
            ]),
        )
    }
}

fn network_facts(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let vyos = rng.chance(0.5);
    let templates = if vyos {
        ["Get config for VyOS devices", "Gather VyOS facts"]
    } else {
        ["Collect IOS device facts", "Gather facts from IOS devices"]
    };
    let name = name_noise(rng.choice(&templates), rng);
    let (short, fqcn) = if vyos {
        ("vyos_facts", "vyos.vyos.vyos_facts")
    } else {
        ("ios_facts", "cisco.ios.ios_facts")
    };
    new_task(
        name,
        module_name(short, fqcn, ctx),
        map(vec![("gather_subset", str_val("all"))]),
    )
}

fn network_config(ctx: &FileCtx, rng: &mut Prng) -> Task {
    let vyos = rng.chance(0.5);
    let (short, fqcn, line) = if vyos {
        (
            "vyos_config",
            "vyos.vyos.vyos_config",
            "set system host-name vyos-changed",
        )
    } else {
        ("ios_config", "cisco.ios.ios_config", "hostname core-sw-01")
    };
    let templates = [
        "Update the hostname".to_string(),
        "Push device configuration".to_string(),
        "Apply configuration lines".to_string(),
    ];
    let name = name_noise(rng.choice(&templates), rng);
    let mut pairs = vec![("lines", Value::Seq(vec![str_val(line)]))];
    if rng.chance(0.5) {
        pairs.insert(0, ("backup", Value::Bool(true)));
    }
    new_task(name, module_name(short, fqcn, ctx), map(pairs))
}

fn debug_msg(rng: &mut Prng) -> Task {
    let msg = *rng.choice(&[
        "Deployment finished",
        "Configuration applied",
        "Starting rollout",
    ]);
    let name = name_noise(rng.choice(&["Print status message", "Show progress"]), rng);
    new_task(
        name,
        "ansible.builtin.debug".to_string(),
        map(vec![("msg", str_val(msg))]),
    )
}

fn maybe_add_keywords(task: &mut Task, kind: TaskKind, ctx: &FileCtx, rng: &mut Prng) {
    if !rng.chance(ctx.keyword_chance) {
        return;
    }
    match rng.weighted_index(&[0.35, 0.25, 0.2, 0.2]) {
        0 => {
            if matches!(
                kind,
                TaskKind::InstallProduct
                    | TaskKind::InstallUtils
                    | TaskKind::UpdateCache
                    | TaskKind::EnableService
                    | TaskKind::DeployConfig
            ) {
                task.keywords
                    .insert("become".to_string(), Value::Bool(true));
            }
        }
        1 => {
            let cond = match ctx.platform {
                Platform::Debian => "ansible_os_family == 'Debian'",
                Platform::RedHat => "ansible_os_family == 'RedHat'",
                Platform::Generic => "ansible_facts['os_family'] is defined",
            };
            task.keywords
                .insert("when".to_string(), Value::from(cond.to_string()));
        }
        2 => {
            let tag = *rng.choice(&["setup", "config", "deploy", "security"]);
            task.keywords
                .insert("tags".to_string(), Value::Seq(vec![str_val(tag)]));
        }
        _ => {
            task.keywords
                .insert("register".to_string(), str_val("result"));
        }
    }
}

/// Occasionally rewrites mapping args into the legacy `k=v` string form
/// (crawled-content quirk, rejected by the strict schema).
fn maybe_legacy_kv(task: &mut Task, ctx: &FileCtx, rng: &mut Prng) {
    if !rng.chance(ctx.legacy_kv_chance) {
        return;
    }
    let Some(args) = task.args.as_map() else {
        return;
    };
    let mut parts = Vec::new();
    for (k, v) in args.iter() {
        let rendered = match v {
            Value::Str(s) if !s.contains(' ') && !s.is_empty() => s.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Bool(b) => if *b { "yes" } else { "no" }.to_string(),
            _ => return, // lists/maps/spaces don't fit k=v; keep mapping form
        };
        parts.push(format!("{k}={rendered}"));
    }
    if parts.is_empty() {
        return;
    }
    task.args = Value::from(parts.join(" "));
}

/// Picks a random product suitable for the given scenario family.
pub fn pick_product<'a>(rng: &mut Prng, filter: impl Fn(&Product) -> bool) -> &'a Product {
    let candidates: Vec<&Product> = PRODUCTS.iter().filter(|p| filter(p)).collect();
    assert!(!candidates.is_empty(), "product filter matched nothing");
    candidates[rng.range_usize(0, candidates.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisdom_ansible::{lint_str, LintTarget};

    fn galaxy_ctx(seed: u64) -> (FileCtx, Prng) {
        let mut rng = Prng::seed_from_u64(seed);
        let ctx = FileCtx::galaxy(&mut rng);
        (ctx, rng)
    }

    const ALL_KINDS: &[TaskKind] = &[
        TaskKind::InstallProduct,
        TaskKind::InstallUtils,
        TaskKind::UpdateCache,
        TaskKind::DeployConfig,
        TaskKind::EnableService,
        TaskKind::RestartService,
        TaskKind::OpenFirewall,
        TaskKind::WaitForPort,
        TaskKind::CreateDirectory,
        TaskKind::GitClone,
        TaskKind::Download,
        TaskKind::Unarchive,
        TaskKind::CreateUser,
        TaskKind::CreateGroup,
        TaskKind::AuthorizedKey,
        TaskKind::Sysctl,
        TaskKind::ConfigLine,
        TaskKind::CronJob,
        TaskKind::SetTimezone,
        TaskKind::SetHostname,
        TaskKind::DockerContainer,
        TaskKind::CreateDatabase,
        TaskKind::CreateDbUser,
        TaskKind::NetworkFacts,
        TaskKind::NetworkConfig,
        TaskKind::DebugMsg,
    ];

    #[test]
    fn every_kind_generates_schema_correct_galaxy_tasks() {
        let (ctx, mut rng) = galaxy_ctx(1);
        for (i, &kind) in ALL_KINDS.iter().enumerate() {
            for rep in 0..8 {
                let product = &PRODUCTS[(i + rep) % PRODUCTS.len()];
                let task = generate_task(kind, product, &ctx, &mut rng);
                let doc = wisdom_yaml::emit(&Value::Seq(vec![task.to_value()]));
                let violations = lint_str(&doc, LintTarget::TaskFile);
                assert!(
                    violations.is_empty(),
                    "kind {kind:?} produced invalid task: {violations:?}\n{doc}"
                );
            }
        }
    }

    #[test]
    fn tasks_have_names() {
        let (ctx, mut rng) = galaxy_ctx(2);
        for &kind in ALL_KINDS {
            let t = generate_task(kind, &PRODUCTS[0], &ctx, &mut rng);
            assert!(t.name.as_deref().is_some_and(|n| !n.is_empty()));
        }
    }

    #[test]
    fn name_correlates_with_module_for_installs() {
        let (ctx, mut rng) = galaxy_ctx(3);
        for _ in 0..20 {
            let t = generate_task(TaskKind::InstallProduct, &PRODUCTS[0], &ctx, &mut rng);
            assert!(
                t.fqcn().contains("apt")
                    || t.fqcn().contains("yum")
                    || t.fqcn().contains("dnf")
                    || t.fqcn().contains("package"),
                "install task uses a package module, got {}",
                t.module
            );
        }
    }

    #[test]
    fn crawled_ctx_produces_legacy_forms_sometimes() {
        let mut rng = Prng::seed_from_u64(4);
        let ctx = FileCtx {
            legacy_kv_chance: 1.0,
            ..FileCtx::crawled(&mut rng)
        };
        let mut saw_kv = false;
        for _ in 0..20 {
            let t = generate_task(TaskKind::EnableService, &PRODUCTS[0], &ctx, &mut rng);
            if t.args.as_str().is_some() {
                saw_kv = true;
            }
        }
        assert!(saw_kv, "expected at least one k=v form");
    }

    #[test]
    fn determinism_same_seed_same_task() {
        let (ctx, _) = galaxy_ctx(5);
        let mut a = Prng::seed_from_u64(99);
        let mut b = Prng::seed_from_u64(99);
        let ta = generate_task(TaskKind::GitClone, &PRODUCTS[2], &ctx, &mut a);
        let tb = generate_task(TaskKind::GitClone, &PRODUCTS[2], &ctx, &mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn pick_product_honours_filter() {
        let mut rng = Prng::seed_from_u64(6);
        for _ in 0..20 {
            let p = pick_product(&mut rng, |p| p.port == 80);
            assert_eq!(p.port, 80);
        }
    }
}
