//! Reads a `telemetry/v1` snapshot from outside the program: a minimal
//! JSON reader that flattens every numeric leaf into a dotted path, plus
//! the SHA-256 digest the determinism guard compares.

use std::collections::BTreeMap;

use ulp_crypto::sha256::Sha256;

/// Hex SHA-256 of a rendered snapshot.
pub fn digest(snapshot: &str) -> String {
    Sha256::digest(snapshot.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Every numeric leaf of a snapshot, keyed by dotted scope path.
///
/// A counter or gauge `{ "kind": ..., "value": v }` at scope `a.b`
/// named `m` becomes `a.b.m`; a histogram's numeric fields become
/// `a.b.m.p99` and so on. `null` and boolean leaves are skipped.
pub fn flatten(snapshot: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut p = Parser {
        s: snapshot.as_bytes(),
        i: 0,
    };
    let root = p.value()?;
    let mut out = BTreeMap::new();
    if let Json::Obj(fields) = root {
        for (k, v) in fields {
            match k.as_str() {
                "scopes" => walk_scopes(&v, "", &mut out),
                "metrics" => walk_metrics(&v, "", &mut out),
                _ => {}
            }
        }
    }
    Ok(out)
}

/// The sum of every leaf whose path starts with `prefix` and ends with
/// `suffix` (per-channel counters, for instance).
pub fn sum(counters: &BTreeMap<String, f64>, prefix: &str, suffix: &str) -> f64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// The largest leaf matching `prefix`/`suffix`, or 0 when none does.
pub fn max(counters: &BTreeMap<String, f64>, prefix: &str, suffix: &str) -> f64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| *v)
        .fold(0.0, f64::max)
}

fn join(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{path}.{name}")
    }
}

fn walk_scopes(v: &Json, path: &str, out: &mut BTreeMap<String, f64>) {
    let Json::Obj(scopes) = v else { return };
    for (name, scope) in scopes {
        let here = join(path, name);
        let Json::Obj(fields) = scope else { continue };
        for (k, child) in fields {
            match k.as_str() {
                "metrics" => walk_metrics(child, &here, out),
                "scopes" => walk_scopes(child, &here, out),
                _ => {}
            }
        }
    }
}

fn walk_metrics(v: &Json, path: &str, out: &mut BTreeMap<String, f64>) {
    let Json::Obj(metrics) = v else { return };
    for (name, metric) in metrics {
        let here = join(path, name);
        let Json::Obj(fields) = metric else { continue };
        for (k, field) in fields {
            if let Json::Num(x) = field {
                let key = if k == "value" {
                    here.clone()
                } else {
                    join(&here, k)
                };
                out.insert(key, *x);
            }
        }
    }
}

enum Json {
    Obj(Vec<(String, Json)>),
    Num(f64),
    Other,
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "snapshot: expected '{}' at byte {}",
                c as char, self.i
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.s.get(self.i) != Some(&b']') {
                    loop {
                        self.value()?;
                        self.ws();
                        if self.s.get(self.i) == Some(&b',') {
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']')?;
                Ok(Json::Other)
            }
            Some(b'"') => {
                self.string()?;
                Ok(Json::Other)
            }
            Some(c) if c.is_ascii_alphabetic() => {
                while self.i < self.s.len() && self.s[self.i].is_ascii_alphabetic() {
                    self.i += 1;
                }
                Ok(Json::Other)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("snapshot: bad number at byte {start}"))
            }
            None => Err("snapshot: unexpected end".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                _ => break,
            }
        }
        self.eat(b'}')?;
        Ok(Json::Obj(fields))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    out.push(*self.s.get(self.i).ok_or("snapshot: bad escape")?);
                    self.i += 1;
                }
                c => out.push(c),
            }
        }
        Err("snapshot: unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::Registry;

    #[test]
    fn flattens_counters_gauges_and_histograms() {
        let mut reg = Registry::new();
        reg.scope("host.channel0.device")
            .set_counter("dsa_lines", 7);
        reg.scope("host.channel1.device")
            .set_counter("dsa_lines", 5);
        reg.scope("host.mem.llc").set_gauge("miss_rate", 0.25);
        let mut h = simkit::Histogram::new("lat", 10, 8);
        h.record(15);
        reg.root().set_histogram("latency_ns", &h);
        let flat = flatten(&reg.snapshot()).unwrap();
        assert_eq!(flat["host.channel0.device.dsa_lines"], 7.0);
        assert_eq!(flat["host.mem.llc.miss_rate"], 0.25);
        assert_eq!(flat["latency_ns.count"], 1.0);
        assert_eq!(sum(&flat, "host.channel", ".device.dsa_lines"), 12.0);
        assert_eq!(max(&flat, "host.channel", ".device.dsa_lines"), 7.0);
    }
}
