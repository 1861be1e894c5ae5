//! Legacy `k1=v1 k2=v2` module-argument syntax.
//!
//! Old Ansible content writes module parameters as a single free-form string
//! (`apt: name=nginx state=present`). The Ansible Aware metric normalizes
//! that form into a parameter mapping before comparing, and the formatting
//! standardizer rewrites it in modern style.

use wisdom_yaml::{Mapping, Value};

/// Attempts to interpret `text` as legacy `k=v` module arguments.
///
/// Returns `None` when the string does not look like a pure `k=v` list
/// (e.g. a real free-form `command` line such as `ls -la`, or an argument
/// containing an `=`-free token).
///
/// Values are resolved with the same scalar schema as the YAML parser, and
/// quoted values (`creates="/tmp/x y"`) are supported.
///
/// # Examples
///
/// ```
/// use wisdom_ansible::parse_kv_args;
///
/// let m = parse_kv_args("name=nginx state=present update_cache=yes").expect("k=v");
/// assert_eq!(m.get("state").and_then(|v| v.as_str()), Some("present"));
/// assert_eq!(m.get("update_cache").and_then(|v| v.as_bool()), Some(true));
/// assert!(parse_kv_args("ls -la /tmp").is_none());
/// ```
pub fn parse_kv_args(text: &str) -> Option<Mapping<'static>> {
    let tokens = split_tokens(text)?;
    if tokens.is_empty() {
        return None;
    }
    let mut map = Mapping::new();
    for token in tokens {
        let eq = token.find('=')?;
        let key = &token[..eq];
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return None;
        }
        let raw_value = &token[eq + 1..];
        let value = unquote(raw_value);
        map.insert(key.to_string(), value);
    }
    Some(map)
}

/// Splits on spaces, keeping quoted segments (single or double) and jinja
/// `{{ … }}` expressions intact, the way Ansible's own splitter does.
fn split_tokens(text: &str) -> Option<Vec<String>> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut quote: Option<char> = None;
    let mut jinja = 0usize;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match quote {
            Some(q) => {
                current.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '\'' | '"' if jinja == 0 => {
                    current.push(c);
                    quote = Some(c);
                }
                '{' if i + 1 < chars.len() && chars[i + 1] == '{' => {
                    current.push_str("{{");
                    jinja += 1;
                    i += 1;
                }
                '}' if jinja > 0 && i + 1 < chars.len() && chars[i + 1] == '}' => {
                    current.push_str("}}");
                    jinja -= 1;
                    i += 1;
                }
                ' ' if jinja == 0 => {
                    if !current.is_empty() {
                        tokens.push(std::mem::take(&mut current));
                    }
                }
                _ => current.push(c),
            },
        }
        i += 1;
    }
    if quote.is_some() || jinja != 0 {
        return None; // unterminated quote or jinja expression
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    Some(tokens)
}

fn unquote(raw: &str) -> Value<'static> {
    let bytes = raw.as_bytes();
    if bytes.len() >= 2 {
        let first = bytes[0];
        if (first == b'"' || first == b'\'') && bytes[bytes.len() - 1] == first {
            return Value::from(raw[1..raw.len() - 1].to_string());
        }
    }
    wisdom_yaml::parse(&format!("v: {raw}\n"))
        .ok()
        .and_then(|v| v.as_map().and_then(|m| m.get("v").cloned()))
        .map_or_else(|| Value::from(raw.to_string()), Value::into_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_kv() {
        let m = parse_kv_args("src=/a dest=/b mode=0644").unwrap();
        assert_eq!(m.get("src").unwrap().as_str(), Some("/a"));
        assert_eq!(m.get("mode").unwrap().as_int(), Some(644));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn typed_values() {
        let m = parse_kv_args("enabled=yes retries=3").unwrap();
        assert_eq!(m.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("retries").unwrap().as_int(), Some(3));
    }

    #[test]
    fn quoted_values_with_spaces() {
        let m = parse_kv_args("line=\"server_name example.com;\" path=/etc/nginx.conf").unwrap();
        assert_eq!(
            m.get("line").unwrap().as_str(),
            Some("server_name example.com;")
        );
    }

    #[test]
    fn free_form_commands_rejected() {
        assert!(parse_kv_args("ls -la").is_none());
        assert!(parse_kv_args("systemctl restart nginx").is_none());
        assert!(parse_kv_args("").is_none());
    }

    #[test]
    fn mixed_free_form_rejected() {
        // One token without '=' disqualifies the whole string.
        assert!(parse_kv_args("name=nginx now").is_none());
    }

    #[test]
    fn weird_keys_rejected() {
        assert!(parse_kv_args("-flag=x").is_none());
        assert!(parse_kv_args("a.b=x").is_none());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse_kv_args("line=\"oops").is_none());
    }

    #[test]
    fn jinja_values_kept() {
        let m = parse_kv_args("name={{ pkg }} state=present").unwrap();
        assert_eq!(m.get("name").unwrap().as_str(), Some("{{ pkg }}"));
    }
}
