// Fixture: `Msg::Invoke` lost its routing arm (swallowed by a wildcard) and
// the decoder matches tag 7 where the encoder pushes 2.

pub enum Msg {
    Dap(u8),
    Con(u16),
    Invoke(u32),
}

impl WireEncode for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Dap(x) => {
                out.push(0);
                out.push(*x);
            }
            Msg::Con(_) => out.push(1),
            Msg::Invoke(_) => out.push(2),
        }
    }
}

impl WireDecode for Msg {
    fn decode(r: &mut Reader) -> Result<Msg, Error> {
        Ok(match r.u8()? {
            0 => Msg::Dap(r.u8()?),
            1 => Msg::Con(0),
            7 => Msg::Invoke(0),
            _ => return Err(Error),
        })
    }
}

pub fn route(msg: &Msg, shards: usize) -> usize {
    match msg {
        Msg::Dap(x) => (*x as usize) % shards,
        _ => 0,
    }
}
