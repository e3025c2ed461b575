//! Wire schema: every variant in both directions, one WIRE_VERSION.
const WIRE_VERSION: u64 = 1;

pub enum Command {
    Map,
    Zoom(usize),
}

impl Command {
    fn to_json(&self) -> &'static str {
        match self {
            Command::Map => "map",
            Command::Zoom(_) => "zoom",
        }
    }

    fn from_json(text: &str) -> Option<Command> {
        match text {
            "map" => Some(Command::Map),
            "zoom" => Some(Command::Zoom(0)),
            _ => None,
        }
    }
}
