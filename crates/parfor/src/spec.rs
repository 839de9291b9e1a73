//! Shared parsing for `name[:param]` CLI value specs.
//!
//! Several flags accept a closed set of names where some names carry a
//! colon-separated parameter: `--schedule dynamic:4`, `--solver delta:8`.
//! Before this module each parser hand-rolled the same split / validate /
//! reject dance with slightly different error wording. The helpers here
//! are the single implementation: [`split_spec`] separates name from
//! parameter, [`parse_positive_param`] validates the common
//! positive-integer shape, and [`reject_unknown`] builds the
//! self-describing rejection every spec parser must emit — the same
//! "possible values" phrasing the plain `ValueEnum` parsers use, so a
//! user sees one error style across every flag.

/// Splits `raw` at the first `:` into `(name, Some(param))`, or returns
/// `(raw, None)` when there is no parameter.
///
/// ```
/// use parapsp_parfor::spec::split_spec;
/// assert_eq!(split_spec("dynamic:4"), ("dynamic", Some("4")));
/// assert_eq!(split_spec("block"), ("block", None));
/// ```
#[inline]
pub fn split_spec(raw: &str) -> (&str, Option<&str>) {
    match raw.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (raw, None),
    }
}

/// Validates the common `:<positive integer>` parameter shape:
/// `Some(param)` must parse as an integer ≥ 1, and `None` means the spec
/// lacks the parameter it requires.
///
/// `kind` and `name` only flavour the error text (`"schedule"`,
/// `"dynamic"`).
pub fn parse_positive_param<T: std::str::FromStr + PartialOrd + From<u8>>(
    kind: &str,
    name: &str,
    param: Option<&str>,
) -> Result<T, String> {
    match param {
        Some(p) => match p.parse::<T>() {
            Ok(v) if v >= T::from(1u8) => Ok(v),
            _ => Err(format!(
                "{kind} `{name}:{p}` needs a positive integer parameter"
            )),
        },
        None => Err(format!("{kind} `{name}` needs a `:<param>` value")),
    }
}

/// The rejection for a name outside the closed set: names the kind,
/// echoes the offending value, and enumerates every accepted spelling.
pub fn reject_unknown(kind: &str, raw: &str, possible: &[&str]) -> String {
    format!(
        "unknown {kind} `{raw}` (possible values: {})",
        possible.join(", ")
    )
}

/// The rejection for a parameter supplied to a name that takes none.
pub fn reject_param(kind: &str, name: &str) -> String {
    format!("{kind} `{name}` does not take a parameter")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_separates_name_and_param() {
        assert_eq!(split_spec("dynamic:16"), ("dynamic", Some("16")));
        assert_eq!(split_spec("auto"), ("auto", None));
        assert_eq!(split_spec("a:b:c"), ("a", Some("b:c")));
        assert_eq!(split_spec(""), ("", None));
    }

    #[test]
    fn positive_param_validates() {
        assert_eq!(
            parse_positive_param::<usize>("schedule", "dynamic", Some("4")),
            Ok(4)
        );
        for bad in ["0", "-3", "lots", ""] {
            let err = parse_positive_param::<usize>("schedule", "dynamic", Some(bad)).unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
        let err = parse_positive_param::<usize>("schedule", "dynamic", None).unwrap_err();
        assert!(err.contains("dynamic"), "{err}");
    }

    #[test]
    fn rejections_are_self_describing() {
        let err = reject_unknown("schedule", "warp", &["block", "dynamic:<chunk>"]);
        assert!(err.contains("warp") && err.contains("possible values"));
        assert!(err.contains("block") && err.contains("dynamic:<chunk>"));
        let err = reject_param("schedule", "block");
        assert!(err.contains("block") && err.contains("parameter"));
    }
}
