package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{Crime, Dblp, NestedTpch, Twitter}
import repro.scenarios.{CrimeScenarios, DblpScenarios, Scenario, TpchScenarios, TwitterScenarios}

/** The tables one workload generates (to be cached and counted) and the
  * scenarios built over them, in the order the closed loop asks them.
  * ``census`` lists every scenario of the same datasets, built only in
  * the traced run to count their schema alternatives.
  */
final case class Generated(tables: Map[String, DataFrame],
                           scenarios: () => Seq[Scenario],
                           census: () => Seq[Scenario])

/** One benchmark workload: a fixed question list at a fixed scale. */
final case class Workload(name: String, scale: Seq[(String, Long)], questions: Seq[String],
                          generate: (SparkSession, Long) => Generated)

object Workloads {

  private val tpchBuilders: Seq[(String, NestedTpch => Scenario)] = Seq(
    "Q1" -> TpchScenarios.q1, "Q3" -> TpchScenarios.q3, "Q4" -> TpchScenarios.q4,
    "Q6" -> TpchScenarios.q6, "Q10" -> TpchScenarios.q10, "Q13" -> TpchScenarios.q13,
    "Q1F" -> TpchScenarios.q1F, "Q3F" -> TpchScenarios.q3F, "Q4F" -> TpchScenarios.q4F,
    "Q6F" -> TpchScenarios.q6F, "Q10F" -> TpchScenarios.q10F, "Q13F" -> TpchScenarios.q13F)

  private type TableScenario = Map[String, DataFrame] => Scenario
  private val dblpBuilders: Seq[(String, TableScenario)] = Seq(
    "D1" -> DblpScenarios.d1, "D2" -> DblpScenarios.d2, "D3" -> DblpScenarios.d3,
    "D4" -> DblpScenarios.d4, "D5" -> DblpScenarios.d5)
  private val twitterBuilders: Seq[(String, TableScenario)] = Seq(
    "T1" -> TwitterScenarios.t1, "T2" -> TwitterScenarios.t2, "T3" -> TwitterScenarios.t3,
    "T4" -> TwitterScenarios.t4, "T_ASD" -> TwitterScenarios.tAsd)
  private val crimeBuilders: Seq[(String, TableScenario)] = Seq(
    "C1" -> CrimeScenarios.c1, "C2" -> CrimeScenarios.c2, "C3" -> CrimeScenarios.c3)

  private def pick[D](builders: Seq[(String, D => Scenario)], d: D, names: String => Boolean): Seq[Scenario] =
    builders.collect { case (n, b) if names(n) => b(d) }

  private def tpch(name: String, orders: Long, questions: Seq[String]): Workload =
    Workload(name, Seq("tpch_orders" -> orders), questions, (spark, seed) => {
      val d = NestedTpch(spark, nOrders = orders, seed = seed)
      Generated(d.catalog, () => pick(tpchBuilders, d, questions.contains), () => pick(tpchBuilders, d, _ => true))
    })

  val all: Seq[Workload] = Seq(
    // 12 SAs on little data: per-SA plan building and Spark jobs dominate
    tpch("tpch-many-sa", orders = 2000, questions = Seq("Q4F")),
    // few SAs on 10x the rows: shuffles and executor CPU dominate; run by
    // hand only, as two workloads are what the run-time budget of
    // BENCHMARK.json allows at a steady run length
    tpch("tpch-data", orders = 20000, questions = Seq("Q10F")),
    {
      val dblpRecords = 2000L
      val tweets = 2000L
      val questions = Seq("D3", "D4", "T3", "T_ASD", "C3")
      // at most 2 SAs per nested question: flattens and per-question fixed cost dominate.
      // T1 is left out: Twitter.tables plants its witness as tweet 501, an id the
      // generated tweets also take above 500 tweets, so its expectations then hold
      // only on the seeds where generated tweet 501 neither mentions Michael Jordan
      // nor has media
      Workload("nested-few-sa", Seq("dblp_records" -> dblpRecords, "tweets" -> tweets), questions,
        (spark, seed) => {
          val dblp = Dblp.tables(spark, nRecords = dblpRecords.toInt, seed = seed)
          val twitter = Twitter.tables(spark, nTweets = tweets.toInt, seed = seed)
          val crime = Crime.tables(spark, seed = seed)
          def build(names: String => Boolean) =
            pick(dblpBuilders, dblp, names) ++ pick(twitterBuilders, twitter, names) ++ pick(crimeBuilders, crime, names)
          Generated(dblp ++ twitter ++ crime, () => build(questions.contains), () => build(_ => true))
        })
    })

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; have ${all.map(_.name).mkString(", ")}"))
}
