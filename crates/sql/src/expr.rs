//! Expression AST and evaluation.

use std::borrow::Cow;
use std::fmt;

use crate::value::Datum;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// An expression over the columns of the current scope.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal datum.
    Literal(Datum),
    /// A column reference, resolved to a scope ordinal at plan time.
    Column(usize),
    /// An unresolved column name (only before binding).
    Name(String),
    /// A prepared-statement parameter (1-based).
    Param(usize),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Type mismatch for an operator.
    TypeMismatch(&'static str),
    /// Division by zero.
    DivisionByZero,
    /// An unbound name or parameter survived to execution.
    Unbound(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch(op) => write!(f, "type mismatch in {op}"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::Unbound(n) => write!(f, "unbound reference {n}"),
        }
    }
}

impl Expr {
    /// Evaluates against a row (scope columns) with bound parameters.
    pub fn eval(&self, row: &[Datum], params: &[Datum]) -> Result<Datum, EvalError> {
        self.eval_ref(row, params).map(Cow::into_owned)
    }

    /// [`Expr::eval`] without the copy: a column, parameter or literal is
    /// lent from where it lives, and only a computed value is owned — a
    /// comparison against a string column reads the row's own `String`.
    pub fn eval_ref<'a>(
        &'a self,
        row: &'a [Datum],
        params: &'a [Datum],
    ) -> Result<Cow<'a, Datum>, EvalError> {
        let owned = |d: Datum| Ok(Cow::Owned(d));
        match self {
            Expr::Literal(d) => Ok(Cow::Borrowed(d)),
            Expr::Column(i) => row
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| EvalError::Unbound(format!("column {i}"))),
            Expr::Name(n) => Err(EvalError::Unbound(n.clone())),
            Expr::Param(n) => n
                .checked_sub(1)
                .and_then(|i| params.get(i))
                .map(Cow::Borrowed)
                .ok_or_else(|| EvalError::Unbound(format!("${n}"))),
            Expr::Not(e) => match e.eval_ref(row, params)?.as_ref() {
                Datum::Bool(b) => owned(Datum::Bool(!b)),
                Datum::Null => owned(Datum::Null),
                _ => Err(EvalError::TypeMismatch("NOT")),
            },
            #[expect(
                clippy::unreachable,
                reason = "each inner match re-dispatches on the operators its enclosing arm matched"
            )]
            Expr::Bin(op, l, r) => {
                use BinOp::*;
                match op {
                    And | Or => {
                        let lv = l.eval_ref(row, params)?;
                        // Short-circuit.
                        match (op, lv.as_ref()) {
                            (And, Datum::Bool(false)) => return owned(Datum::Bool(false)),
                            (Or, Datum::Bool(true)) => return owned(Datum::Bool(true)),
                            _ => {}
                        }
                        let rv = r.eval_ref(row, params)?;
                        match (lv.as_ref(), rv.as_ref()) {
                            (Datum::Bool(a), Datum::Bool(b)) => {
                                owned(Datum::Bool(if *op == And { *a && *b } else { *a || *b }))
                            }
                            (Datum::Null, _) | (_, Datum::Null) => owned(Datum::Null),
                            _ => Err(EvalError::TypeMismatch("AND/OR")),
                        }
                    }
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        let lv = l.eval_ref(row, params)?;
                        let rv = r.eval_ref(row, params)?;
                        match lv.sql_cmp(&rv) {
                            None => owned(Datum::Null),
                            Some(ord) => {
                                let b = match op {
                                    Eq => ord.is_eq(),
                                    Ne => !ord.is_eq(),
                                    Lt => ord.is_lt(),
                                    Le => ord.is_le(),
                                    Gt => ord.is_gt(),
                                    Ge => ord.is_ge(),
                                    _ => unreachable!(),
                                };
                                owned(Datum::Bool(b))
                            }
                        }
                    }
                    Add | Sub | Mul | Div | Mod => {
                        let lv = l.eval_ref(row, params)?;
                        let rv = r.eval_ref(row, params)?;
                        if lv.is_null() || rv.is_null() {
                            return owned(Datum::Null);
                        }
                        // Integer arithmetic stays integer (except /).
                        if let (Datum::Int(a), Datum::Int(b)) = (lv.as_ref(), rv.as_ref()) {
                            return match op {
                                Add => owned(Datum::Int(a.wrapping_add(*b))),
                                Sub => owned(Datum::Int(a.wrapping_sub(*b))),
                                Mul => owned(Datum::Int(a.wrapping_mul(*b))),
                                Mod => {
                                    if *b == 0 {
                                        Err(EvalError::DivisionByZero)
                                    } else {
                                        // `i64::MIN % -1` overflows; SQL says 0.
                                        owned(Datum::Int(a.wrapping_rem(*b)))
                                    }
                                }
                                Div => {
                                    if *b == 0 {
                                        Err(EvalError::DivisionByZero)
                                    } else {
                                        owned(Datum::Float(*a as f64 / *b as f64))
                                    }
                                }
                                _ => unreachable!(),
                            };
                        }
                        let a = lv.as_f64().ok_or(EvalError::TypeMismatch("arith"))?;
                        let b = rv.as_f64().ok_or(EvalError::TypeMismatch("arith"))?;
                        match op {
                            Add => owned(Datum::Float(a + b)),
                            Sub => owned(Datum::Float(a - b)),
                            Mul => owned(Datum::Float(a * b)),
                            Div => {
                                if b == 0.0 {
                                    Err(EvalError::DivisionByZero)
                                } else {
                                    owned(Datum::Float(a / b))
                                }
                            }
                            Mod => Err(EvalError::TypeMismatch("%")),
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }

    /// Resolves [`Expr::Name`] nodes against a scope of column names;
    /// names may be qualified (`table.col`) or bare.
    pub fn bind(&mut self, scope: &[String]) -> Result<(), String> {
        match self {
            Expr::Name(n) => {
                let idx = resolve_name(scope, n)?;
                *self = Expr::Column(idx);
                Ok(())
            }
            Expr::Bin(_, l, r) => {
                l.bind(scope)?;
                r.bind(scope)
            }
            Expr::Not(e) => e.bind(scope),
            _ => Ok(()),
        }
    }

    /// Substitutes parameters with literal values (used when caching
    /// bound plans).
    pub fn references_params(&self) -> bool {
        match self {
            Expr::Param(_) => true,
            Expr::Bin(_, l, r) => l.references_params() || r.references_params(),
            Expr::Not(e) => e.references_params(),
            _ => false,
        }
    }
}

/// Resolves a possibly-qualified name in a scope. A bare name matches a
/// qualified scope entry's suffix; ambiguity is an error.
pub fn resolve_name(scope: &[String], name: &str) -> Result<usize, String> {
    let mut matches = scope
        .iter()
        .enumerate()
        .filter(|(_, s)| s.as_str() == name || s.rsplit('.').next() == Some(name));
    match (matches.next(), matches.next()) {
        (Some((i, _)), None) => Ok(i),
        (None, _) => Err(format!("column {name} not found")),
        (Some(_), Some(_)) => Err(format!("column {name} is ambiguous")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Expr {
        Expr::Literal(Datum::Int(i))
    }

    #[test]
    fn arithmetic() {
        let e = Expr::Bin(BinOp::Add, Box::new(lit(2)), Box::new(lit(3)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Int(5));
        let e = Expr::Bin(BinOp::Div, Box::new(lit(7)), Box::new(lit(2)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Float(3.5));
        let e = Expr::Bin(BinOp::Div, Box::new(lit(1)), Box::new(lit(0)));
        assert_eq!(e.eval(&[], &[]), Err(EvalError::DivisionByZero));
        let e = Expr::Bin(BinOp::Mod, Box::new(lit(7)), Box::new(lit(3)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Int(1));
        // The one remainder that overflows: a value, not an abort.
        let e = Expr::Bin(BinOp::Mod, Box::new(lit(i64::MIN)), Box::new(lit(-1)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Int(0));
    }

    #[test]
    fn comparisons_and_null() {
        let e = Expr::Bin(BinOp::Lt, Box::new(lit(1)), Box::new(lit(2)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Bool(true));
        let e = Expr::Bin(BinOp::Eq, Box::new(Expr::Literal(Datum::Null)), Box::new(lit(2)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Null);
        let e = Expr::Bin(BinOp::Add, Box::new(Expr::Literal(Datum::Null)), Box::new(lit(2)));
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Null);
    }

    #[test]
    fn short_circuit_logic() {
        // FALSE AND <error> short-circuits.
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Literal(Datum::Bool(false))),
            Box::new(Expr::Name("unbound".into())),
        );
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Bool(false));
        let e = Expr::Bin(
            BinOp::Or,
            Box::new(Expr::Literal(Datum::Bool(true))),
            Box::new(Expr::Name("unbound".into())),
        );
        assert_eq!(e.eval(&[], &[]).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn columns_and_params() {
        let row = vec![Datum::Int(10), Datum::Str("x".into())];
        let e = Expr::Bin(BinOp::Mul, Box::new(Expr::Column(0)), Box::new(Expr::Param(1)));
        assert_eq!(e.eval(&row, &[Datum::Int(3)]).unwrap(), Datum::Int(30));
        assert!(e.references_params());
        assert!(!Expr::Column(0).references_params());
    }

    #[test]
    fn binding_names() {
        let scope = vec!["t.a".to_string(), "t.b".to_string(), "u.b".to_string()];
        let mut e = Expr::Name("a".into());
        e.bind(&scope).unwrap();
        assert_eq!(e, Expr::Column(0));
        let mut e = Expr::Name("u.b".into());
        e.bind(&scope).unwrap();
        assert_eq!(e, Expr::Column(2));
        let mut e = Expr::Name("b".into());
        assert!(e.bind(&scope).is_err(), "ambiguous bare name");
        let mut e = Expr::Name("zzz".into());
        assert!(e.bind(&scope).is_err());
    }
}
