package repro.perfbench

/** A JSON object whose fields keep their order. */
final case class Obj(fields: (String, Any)*)

/** Minimal JSON writer for the benchmark's records. */
object Json {
  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n @ (_: Int | _: Long) => n.toString
    case o: Obj => o.fields.map { case (k, x) => quote(k) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case x => quote(x.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b.append('"').result()
  }
}
