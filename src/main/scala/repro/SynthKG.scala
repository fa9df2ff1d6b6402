package repro

import scala.util.Random
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.ingest.Export

/** Synthetic multi-source knowledge universe.
  *
  * Stands in for the proprietary data feeds the paper ingests (Wikipedia,
  * Wikidata, music/movie/sports verticals — see DESIGN.md §3). Generates a
  * deterministic universe of "true" real-world entities with aliases,
  * nicknames, relationships and composite facts, then derives per-source
  * payloads with controlled noise: coverage gaps, per-source schemas,
  * typos, alias usage, in-source duplicates, per-epoch churn (for delta
  * computation), and volatile popularity feeds. Ground truth (the true
  * entity behind every source record and mention) is retained so that
  * linking / NERD / fusion accuracy is measurable.
  *
  * Everything is deterministic in (scale, seed).
  */
object SynthKG {

  // ------------------------------------------------------------ name pools

  /** First-name → nicknames. The learned similarity functions (§5.1) must
    * discover these synonym pairs from alias clusters.
    */
  val nicknames: Map[String, Seq[String]] = Map(
    "Robert" -> Seq("Bob", "Rob"), "William" -> Seq("Bill", "Will"),
    "Elizabeth" -> Seq("Liz", "Beth"), "Margaret" -> Seq("Peggy", "Meg"),
    "James" -> Seq("Jim", "Jamie"), "John" -> Seq("Jack", "Johnny"),
    "Richard" -> Seq("Rick", "Richie"), "Katherine" -> Seq("Kate", "Kathy"),
    "Michael" -> Seq("Mike", "Mickey"), "Jennifer" -> Seq("Jen", "Jenny"),
    "Thomas" -> Seq("Tom", "Tommy"), "Charles" -> Seq("Chuck", "Charlie"),
    "Joseph" -> Seq("Joe", "Joey"), "Daniel" -> Seq("Dan", "Danny"),
    "Anthony" -> Seq("Tony", "Ant"), "Steven" -> Seq("Steve", "Stevie"),
    "Edward" -> Seq("Ed", "Ted"), "Patricia" -> Seq("Pat", "Trish"),
    "Barbara" -> Seq("Barb", "Babs"), "Susan" -> Seq("Sue", "Susie"),
  )
  val firstNames: Seq[String] = nicknames.keys.toSeq.sorted ++ Seq(
    "Alice", "Victor", "Nora", "Felix", "Clara", "Oscar", "Ivy", "Hugo",
    "Mia", "Leo", "Ada", "Max", "Ruth", "Carl", "Eva", "Paul")
  val lastNames: Seq[String] = Seq(
    "Smith", "Johnson", "Lee", "Brown", "Garcia", "Miller", "Davis", "Wilson",
    "Clark", "Hall", "Young", "King", "Wright", "Scott", "Green", "Baker",
    "Adams", "Nelson", "Carter", "Mitchell", "Turner", "Parker", "Collins",
    "Edwards", "Stewart", "Morris", "Murphy", "Cook", "Rogers", "Reed")

  /** Base city names; a controlled fraction of cities reuse the name of
    * another city in a different country so NERD faces genuinely
    * ambiguous surface forms (the "Hanover" problem, §5.2) with a small,
    * realistic fan-out (pairs, occasionally more) at every scale.
    */
  val cityBases: Seq[String] = Seq(
    "Hanover", "Springfield", "Richmond", "Georgetown", "Salem", "Bristol",
    "Cambridge", "Oxford", "Dover", "Clinton", "Arlington", "Franklin",
    "Milton", "Newport", "Ashland", "Burlington", "Dayton", "Florence",
    "Greenville", "Kingston", "Lebanon", "Madison", "Oakland", "Troy")
  val countryNames: Seq[String] = Seq(
    "Avaloria", "Borduria", "Calandia", "Drevania", "Elbonia", "Floristan",
    "Glacia", "Hesperia", "Insuland", "Jovania", "Kratovia", "Lumeria",
    "Meridia", "Nordavia", "Ostrinia", "Pelagia", "Quorath", "Rivenia",
    "Sylvaria", "Tyrenia")
  val mascots: Seq[String] = Seq(
    "Wolves", "Eagles", "Sharks", "Titans", "Comets", "Raptors", "Bears",
    "Hornets", "Falcons", "Pirates", "Dragons", "Knights")
  val genres: Seq[String] = Seq(
    "rock", "pop", "jazz", "folk", "electronic", "hip hop", "classical", "blues")
  val movieAdjectives: Seq[String] = Seq(
    "Silent", "Crimson", "Endless", "Broken", "Golden", "Hidden", "Frozen",
    "Burning", "Distant", "Electric", "Velvet", "Savage")
  val movieNouns: Seq[String] = Seq(
    "Horizon", "Empire", "Garden", "Winter", "Mirror", "Voyage", "Harvest",
    "Echo", "River", "Crown", "Signal", "Island")
  val songNouns: Seq[String] = Seq(
    "Rain", "Fire", "Midnight", "Summer", "Heart", "Road", "Dream", "Light",
    "Storm", "Ocean", "Shadow", "Dawn")
  val occupations: Seq[String] = Seq(
    "actor", "writer", "scientist", "politician", "athlete", "chef",
    "director", "teacher", "engineer", "painter")
  val degrees: Seq[String] = Seq("BA", "BSc", "MSc", "MBA", "PhD", "JD", "MD")
  val sports: Seq[String] = Seq("basketball", "football", "hockey", "baseball")
  val labels: Seq[String] = Seq(
    "Northside Records", "Bluebird Music", "Atlas Sound", "Harbor Lane",
    "Redwood Records", "Moonrise Music")

  // ------------------------------------------------------------- the model

  /** A ground-truth real-world entity. `attrs` hold literal predicates,
    * `refs` entity-reference predicates (values are *true ids* of targets),
    * `composites` relationship nodes as (predicate, r_predicate → value)
    * where entity-valued r_predicates also hold true ids.
    */
  final case class TrueEntity(
      id: String,
      etype: String,
      name: String,
      aliases: Seq[String],
      attrs: Map[String, String],
      refs: Map[String, String],
      composites: Seq[(String, Map[String, String])],
      popularity: Double,
  ) {
    def allNames: Seq[String] = name +: aliases
  }

  final case class Universe(entities: Seq[TrueEntity], scale: Int, seed: Long) {
    lazy val byId: Map[String, TrueEntity] = entities.map(e => e.id -> e).toMap
    lazy val byType: Map[String, Seq[TrueEntity]] = entities.groupBy(_.etype)
    def nameOf(trueId: String): String = byId.get(trueId).map(_.name).getOrElse(trueId)
  }

  /** A source's configuration: what it covers, how trustworthy and noisy
    * it is, and how its records churn across epochs.
    */
  final case class SourceConfig(
      name: String,
      trust: Double,
      coverage: Map[String, Double],   // entity type → fraction covered
      typoRate: Double,
      aliasRate: Double,
      dupRate: Double,                 // in-source duplicate probability
      predicateDropRate: Double,       // chance a predicate is missing
      churnRate: Double = 0.1,         // per-epoch fraction of updated entities
      entryFrac: Double = 0.7,         // fraction of covered entities present at epoch 0
      includeComposites: Boolean = true, // legacy pipelines cannot ship relationship nodes
  )

  /** One record emitted by a source: already *ontology-aligned* (column
    * names follow the KG ontology; ids remain in the source namespace —
    * exactly the output contract of the ingestion pipeline, §2.2).
    * `refNames` hold entity references *as literal strings* (names in the
    * source's rendering) — object resolution must map them to KG ids.
    */
  final case class SourceRecord(
      id: String,
      source: String,
      trust: Double,
      trueId: String,                  // ground truth, never shown to the system
      etype: String,
      name: String,
      attrs: Map[String, String],
      refNames: Map[String, String],
      composites: Seq[Map[String, String]],
      compositePred: Option[String],
      volatile: Map[String, String],
  )

  /** Default fleet of sources (DESIGN.md §3 substitution for the paper's
    * production feeds).
    */
  val sourceConfigs: Seq[SourceConfig] = Seq(
    SourceConfig("wiki", 0.90,
      Map("person" -> 0.75, "musician" -> 0.8, "movie" -> 0.7, "city" -> 0.9,
          "country" -> 1.0, "school" -> 0.8, "team" -> 0.6, "song" -> 0.3,
          "album" -> 0.4),
      typoRate = 0.03, aliasRate = 0.10, dupRate = 0.01, predicateDropRate = 0.15),
    SourceConfig("musicdb", 0.85,
      Map("musician" -> 0.95, "song" -> 0.95, "album" -> 0.95),
      typoRate = 0.02, aliasRate = 0.15, dupRate = 0.03, predicateDropRate = 0.10),
    SourceConfig("moviedb", 0.80,
      Map("movie" -> 0.95, "person" -> 0.25),
      typoRate = 0.04, aliasRate = 0.05, dupRate = 0.02, predicateDropRate = 0.10),
    SourceConfig("sportsfeed", 0.75,
      Map("team" -> 0.95, "city" -> 0.3),
      typoRate = 0.02, aliasRate = 0.05, dupRate = 0.01, predicateDropRate = 0.20),
    SourceConfig("geodb", 0.95,
      Map("city" -> 0.95, "country" -> 1.0, "school" -> 0.9),
      typoRate = 0.01, aliasRate = 0.05, dupRate = 0.005, predicateDropRate = 0.05),
    SourceConfig("fanwiki", 0.50,
      Map("person" -> 0.35, "musician" -> 0.4, "movie" -> 0.35, "song" -> 0.3),
      typoRate = 0.12, aliasRate = 0.25, dupRate = 0.08, predicateDropRate = 0.35),
  )

  // -------------------------------------------------------------- universe

  /** Deterministic stable hash in [0,1) of a string key — used for all
    * per-(entity, source, epoch) coin flips so payloads are reproducible
    * and epoch-consistent.
    */
  def unitHash(key: String): Double = {
    val h = java.security.MessageDigest.getInstance("MD5").digest(key.getBytes("UTF-8"))
    val v = java.nio.ByteBuffer.wrap(h).getLong & Long.MaxValue
    v.toDouble / Long.MaxValue
  }

  /** Build the ground-truth universe. Entity counts are linear in `scale`:
    * scale=30 → ~1.1k entities (unit tests); scale=400 → ~15k (benches).
    */
  def universe(scale: Int, seed: Long = 7): Universe = {
    val rnd = new Random(seed)
    def pick[A](xs: Seq[A]): A = xs(rnd.nextInt(xs.size))
    val ents = Seq.newBuilder[TrueEntity]

    val nCountries = math.min(countryNames.size, math.max(5, scale / 6))
    val countries = (0 until nCountries).map { i =>
      TrueEntity(s"Tcountry:$i", "country", countryNames(i),
        aliases = Seq(s"Republic of ${countryNames(i)}"),
        attrs = Map("population" -> (1000000L + rnd.nextInt(90000000)).toString,
                    "currency" -> pick(Seq("dollar", "crown", "mark", "peso")),
                    "anthem" -> s"Hymn of ${countryNames(i)}",
                    "area_km2" -> (10000 + rnd.nextInt(2000000)).toString),
        refs = Map.empty, composites = Seq.empty,
        popularity = 1.0 / (i + 1))
    }

    val nCities = 2 * scale
    val cityPrefixes = Seq("", "New ", "East ", "West ", "Port ", "Lake ",
                           "North ", "South ", "Fort ", "Mount ")
    // Unique name for slot i; the name space is prefixes × bases (+ a
    // numeric round suffix far beyond any realistic scale).
    def uniqueCityName(i: Int): String = {
      val base = cityBases(i % cityBases.size)
      val pfx = cityPrefixes((i / cityBases.size) % cityPrefixes.size)
      val round = i / (cityBases.size * cityPrefixes.size)
      pfx + base + (if (round > 0) s" ${round + 1}" else "")
    }
    val cityNames = (0 until nCities).map { i =>
      // every 4th city duplicates its predecessor's name ("Hanover" in
      // two countries) — ~25% of cities are ambiguous, fan-out 2
      if (i % 4 == 3) uniqueCityName(i - 1) else uniqueCityName(i)
    }
    val cities = (0 until nCities).map { i =>
      val name = cityNames(i)
      val country = countries(rnd.nextInt(countries.size))
      TrueEntity(s"Tcity:$i", "city", name,
        aliases = Seq(s"$name City", s"$name, ${country.name}"),
        attrs = Map("population" -> (1000 + rnd.nextInt(5000000)).toString,
                    "timezone" -> s"UTC+${rnd.nextInt(12)}",
                    "area_km2" -> (10 + rnd.nextInt(900)).toString,
                    "elevation_m" -> rnd.nextInt(2500).toString),
        refs = Map("located_in" -> country.id),
        composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 1.1))
    }

    val nSchools = scale
    val schools = (0 until nSchools).map { i =>
      val city = cities(rnd.nextInt(cities.size))
      val nm = if (i % 2 == 0) s"University of ${city.name}" else s"${city.name} College"
      TrueEntity(s"Tschool:$i", "school", nm,
        aliases = Seq(if (i % 2 == 0) s"${city.name} U" else s"${city.name} Coll."),
        attrs = Map("founded" -> (1800 + rnd.nextInt(200)).toString,
                    "students" -> (500 + rnd.nextInt(40000)).toString,
                    "motto" -> s"${pick(Seq("Veritas", "Lux", "Scientia", "Virtus"))} et ${pick(Seq("Labor", "Umbra", "Honor", "Fides"))}"),
        refs = Map("located_in" -> city.refs("located_in")),
        composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 1.05))
    }

    val nPersons = 10 * scale
    val persons = (0 until nPersons).map { i =>
      val fn = firstNames(rnd.nextInt(firstNames.size))
      val ln = lastNames(rnd.nextInt(lastNames.size))
      val name = s"$fn $ln"
      val nick = nicknames.get(fn).map(ns => s"${ns(rnd.nextInt(ns.size))} $ln")
      val aliases = (Seq(s"${fn.take(1)}. $ln") ++ nick.toSeq).distinct
      val city = cities(rnd.nextInt(cities.size))
      val school = schools(rnd.nextInt(schools.size))
      val year = 1930 + rnd.nextInt(80)
      TrueEntity(s"Tperson:$i", "person", name,
        aliases = aliases,
        attrs = Map("birth_year" -> year.toString,
                    "occupation" -> pick(occupations),
                    "height_cm" -> (150 + rnd.nextInt(55)).toString,
                    "nationality" -> countries(rnd.nextInt(countries.size)).name,
                    "website" -> s"https://example.org/${fn.toLowerCase}-${ln.toLowerCase}",
                    "awards" -> rnd.nextInt(12).toString),
        refs = Map("birthplace" -> city.id),
        composites = Seq("educated_at" -> Map(
          "school" -> school.id, "degree" -> pick(degrees),
          "year" -> (year + 18 + rnd.nextInt(12)).toString)),
        popularity = 1.0 / math.pow(i + 1, 1.08))
    }

    val nMusicians = 3 * scale
    val musicians = (0 until nMusicians).map { i =>
      val fn = firstNames(rnd.nextInt(firstNames.size))
      val ln = lastNames(rnd.nextInt(lastNames.size))
      val name = s"$fn $ln"
      val nick = nicknames.get(fn).map(ns => s"${ns(rnd.nextInt(ns.size))} $ln")
      val city = cities(rnd.nextInt(cities.size))
      TrueEntity(s"Tmusician:$i", "musician", name,
        aliases = (Seq(s"${fn.take(1)}. $ln") ++ nick.toSeq).distinct,
        attrs = Map("birth_year" -> (1940 + rnd.nextInt(65)).toString,
                    "genre" -> pick(genres), "label" -> pick(labels),
                    "instrument" -> pick(Seq("guitar", "piano", "drums", "violin", "voice")),
                    "active_since" -> (1960 + rnd.nextInt(55)).toString,
                    "awards" -> rnd.nextInt(9).toString,
                    "nationality" -> countries(rnd.nextInt(countries.size)).name),
        refs = Map("birthplace" -> city.id),
        composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 1.0))
    }

    val nMovies = 5 * scale
    val movies = (0 until nMovies).map { i =>
      val title = s"The ${pick(movieAdjectives)} ${pick(movieNouns)}"
      val seq = if (rnd.nextDouble() < 0.2) Some(2 + rnd.nextInt(3)) else None
      val full = seq.map(k => s"$title $k").getOrElse(title)
      val director = persons(rnd.nextInt(persons.size))
      TrueEntity(s"Tmovie:$i", "movie", full,
        aliases = Seq(full.toUpperCase),
        attrs = Map("release_year" -> (1970 + rnd.nextInt(52)).toString,
                    "genre" -> pick(Seq("drama", "comedy", "thriller", "sci-fi")),
                    "runtime_min" -> (80 + rnd.nextInt(100)).toString,
                    "director" -> director.name,
                    "rating" -> pick(Seq("G", "PG", "PG-13", "R")),
                    "budget" -> ((1 + rnd.nextInt(200)) * 1000000).toString,
                    "language" -> pick(Seq("en", "fr", "es", "de")),
                    "country_of_origin" -> countries(rnd.nextInt(countries.size)).name),
        refs = Map.empty, composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 1.05))
    }

    val nSongs = 8 * scale
    val songs = (0 until nSongs).map { i =>
      val artist = musicians(rnd.nextInt(musicians.size))
      TrueEntity(s"Tsong:$i", "song", s"${pick(songNouns)} ${pick(songNouns)}",
        aliases = Seq.empty,
        attrs = Map("duration_s" -> (120 + rnd.nextInt(300)).toString,
                    "tempo_bpm" -> (60 + rnd.nextInt(120)).toString,
                    "language" -> pick(Seq("en", "fr", "es", "de"))),
        refs = Map("recorded_by" -> artist.id),
        composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 0.95))
    }

    val nAlbums = 3 * scale
    val albums = (0 until nAlbums).map { i =>
      val artist = musicians(rnd.nextInt(musicians.size))
      TrueEntity(s"Talbum:$i", "album", s"${pick(movieAdjectives)} ${pick(songNouns)}",
        aliases = Seq.empty,
        attrs = Map("release_year" -> (1975 + rnd.nextInt(47)).toString,
                    "n_tracks" -> (6 + rnd.nextInt(14)).toString,
                    "label" -> pick(labels),
                    "genre" -> pick(genres)),
        refs = Map("recorded_by" -> artist.id),
        composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 1.0))
    }

    val nTeams = scale
    val teams = (0 until nTeams).map { i =>
      val city = cities(rnd.nextInt(cities.size))
      TrueEntity(s"Tteam:$i", "team", s"${city.name} ${mascots(i % mascots.size)}",
        aliases = Seq(mascots(i % mascots.size)),
        attrs = Map("sport" -> pick(sports),
                    "founded" -> (1900 + rnd.nextInt(110)).toString,
                    "stadium" -> s"${city.name} Arena",
                    "league" -> pick(Seq("National League", "Continental League", "Premier Circuit")),
                    "championships" -> rnd.nextInt(12).toString),
        refs = Map("home_city" -> city.id),
        composites = Seq.empty,
        popularity = 1.0 / math.pow(i + 1, 0.9))
    }

    ents ++= countries; ents ++= cities; ents ++= schools; ents ++= persons
    ents ++= musicians; ents ++= movies; ents ++= songs; ents ++= albums
    ents ++= teams
    Universe(ents.result(), scale, seed)
  }

  // ------------------------------------------------------- source payloads

  /** Introduce a single character-level typo, deterministically from key. */
  def typo(s: String, key: String): String = {
    if (s.length < 4) return s
    val pos = 1 + (unitHash(key + ":pos") * (s.length - 2)).toInt
    unitHash(key + ":kind") match {
      case h if h < 0.34 => s.substring(0, pos) + s.substring(pos + 1)            // delete
      case h if h < 0.67 => s.substring(0, pos) + s(pos) + s.substring(pos)       // double
      case _             => s.substring(0, pos + 1) + s(pos) + s.substring(pos + 1) // insert dup next
    }
  }

  /** Epoch at which `src` first covers entity `e` (source-onboarding and
    * in-source growth both flow through this): entities enter coverage
    * gradually; a fixed 70% are present from epoch 0.
    */
  def entryEpoch(e: TrueEntity, src: SourceConfig, maxEpoch: Int): Int = {
    val h = unitHash(s"${e.id}|${src.name}|entry")
    if (h < src.entryFrac) 0 else 1 + (unitHash(s"${e.id}|${src.name}|entry2") * maxEpoch).toInt
  }

  private def covered(e: TrueEntity, src: SourceConfig): Boolean =
    src.coverage.get(e.etype).exists(c => unitHash(s"${e.id}|${src.name}|cov") < c)

  /** Generate the *aligned* payload of one source at one epoch. Churn:
    * an entity's attribute values shift at epochs where the per-entity
    * churn hash fires, producing Updated deltas; a small fraction of
    * entities exit coverage at a deterministic epoch, producing Deleted.
    */
  def sourceRecords(u: Universe, src: SourceConfig, epoch: Int = 0,
                    maxEpoch: Int = 8): Seq[SourceRecord] = {
    u.entities.iterator.filter(covered(_, src))
      .filter(e => entryEpoch(e, src, maxEpoch) <= epoch)
      .filter { e => // exit: 5% of entities leave the source at a random epoch
        val hx = unitHash(s"${e.id}|${src.name}|exit")
        !(hx < 0.05 && (unitHash(s"${e.id}|${src.name}|exitep") * maxEpoch).toInt + 1 <= epoch)
      }
      .flatMap { e => recordFor(u, e, src, epoch, dup = false) ++
                      (if (unitHash(s"${e.id}|${src.name}|dup") < src.dupRate)
                         recordFor(u, e, src, epoch, dup = true) else Seq.empty) }
      .toSeq
  }

  private def recordFor(u: Universe, e: TrueEntity, src: SourceConfig,
                        epoch: Int, dup: Boolean): Seq[SourceRecord] = {
    val k = s"${e.id}|${src.name}${if (dup) "|dup" else ""}"
    val id = s"${src.name}:${e.id.replace(":", "_")}${if (dup) "_d" else ""}"
    // name rendering: alias with aliasRate, typo with typoRate (dups always vary)
    val baseName =
      if (e.aliases.nonEmpty && unitHash(s"$k|alias") < src.aliasRate * (if (dup) 3 else 1))
        e.aliases((unitHash(s"$k|aliaspick") * e.aliases.size).toInt)
      else e.name
    val name =
      if (unitHash(s"$k|typo") < src.typoRate * (if (dup) 3 else 1)) typo(baseName, k) else baseName

    // attribute churn: values drift at epochs where churn hash fires
    def churned(pred: String, v: String): String = {
      val fires = (1 to epoch).exists(ep =>
        unitHash(s"$k|$pred|churn$ep") < src.churnRate / math.max(1, 2))
      if (!fires) v
      else v.toIntOption match {
        case Some(n) => (n + 1 + (unitHash(s"$k|$pred|drift") * 5).toInt).toString
        case None    => v
      }
    }
    val attrs0 = e.attrs.collect {
      case (p, v) if unitHash(s"$k|$p|drop") >= src.predicateDropRate => p -> churned(p, v)
    }
    // each source may contribute one of the entity's aliases as an alias
    // fact — different sources pick different renderings, so alias
    // coverage in the KG grows with the number of integrated sources
    val aliasAttr =
      if (e.aliases.nonEmpty && unitHash(s"$k|aliasfact") >= src.predicateDropRate)
        Map("alias" -> e.aliases((unitHash(s"$k|aliasfactpick") * e.aliases.size).toInt))
      else Map.empty[String, String]
    val attrs = attrs0 ++ aliasAttr
    val refNames = e.refs.collect {
      case (p, tid) if unitHash(s"$k|$p|drop") >= src.predicateDropRate =>
        p -> u.nameOf(tid)
    }
    val composites =
      if (!src.includeComposites) Seq.empty
      else e.composites.map { case (_, rmap) =>
        rmap.map { case (rp, v) =>
          rp -> (if (u.byId.contains(v)) u.nameOf(v) else v)
        }
      }
    val volatile = Map("popularity" ->
      f"${e.popularity * (1.0 + 0.3 * unitHash(s"$k|pop|$epoch"))}%.6f")
    Seq(SourceRecord(id, src.name, src.trust, e.id, e.etype, name, attrs,
      refNames, if (e.composites.isEmpty) Seq.empty else composites,
      e.composites.headOption.map(_._1), volatile))
  }

  // ----------------------------------------------------- NERD / OBR corpus

  /** A labeled text mention for NERD evaluation: surface form, bag of
    * context words, the true entity, and whether the entity is "head"
    * (top popularity decile within its type).
    */
  final case class Mention(surface: String, context: Seq[String], trueId: String,
                           etype: String, head: Boolean)

  /** Sample a labeled mention corpus. Half the mentions are drawn
    * popularity-weighted (head-skewed, like real traffic), half uniformly
    * (tail coverage). Context words come from the names of related
    * entities — exactly the relational signal the NERD Entity View carries
    * and the popularity-only baseline ignores.
    */
  def mentions(u: Universe, n: Int, seed: Long = 11): Seq[Mention] = {
    val rnd = new Random(seed)
    val pool = u.entities.filter(e => Set("person", "musician", "city", "team", "school").contains(e.etype))
    val sortedByPop = pool.sortBy(-_.popularity)
    val headSet = sortedByPop.take(math.max(1, pool.size / 10)).map(_.id).toSet
    val weights = pool.map(_.popularity)
    val cum = weights.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    def weighted(): TrueEntity = {
      val x = rnd.nextDouble() * total
      val i = cum.indexWhere(_ >= x)
      pool(if (i < 0) pool.size - 1 else i)
    }
    val noise = Seq("visited", "yesterday", "famous", "downtown", "report",
      "game", "concert", "review", "photo", "weekend", "announced", "new")
    (0 until n).map { i =>
      val e = if (i % 2 == 0) weighted() else pool(rnd.nextInt(pool.size))
      val surface = e.allNames(rnd.nextInt(e.allNames.size))
      val related: Seq[String] =
        e.refs.values.map(u.nameOf).toSeq ++
        e.composites.flatMap(_._2.values.map(v => if (u.byId.contains(v)) u.nameOf(v) else v)) ++
        e.attrs.values.take(2).toSeq
      val ctx = rnd.shuffle(related.flatMap(_.split(' ')).toList).take(4) ++
                (0 until 3).map(_ => noise(rnd.nextInt(noise.size)))
      Mention(surface, ctx, e.id, e.etype, headSet.contains(e.id))
    }
  }

  /** An OBR task instance (§2.3 / Fig 14b): an attribute value that should
    * resolve to an entity, with the predicate's ontology type as hint and
    * the owning record's other fields as context.
    */
  final case class ObrRecord(value: String, predicate: String, typeHint: String,
                             context: Seq[String], trueId: String)

  def obrRecords(u: Universe, n: Int, seed: Long = 13): Seq[ObrRecord] = {
    val rnd = new Random(seed)
    val holders = u.entities.filter(_.refs.nonEmpty)
    (0 until n).map { _ =>
      val e = holders(rnd.nextInt(holders.size))
      val (pred, tid) = e.refs.toSeq(rnd.nextInt(e.refs.size))
      val target = u.byId(tid)
      val surface = target.allNames(rnd.nextInt(target.allNames.size))
      val hint = repro.core.Ontology.entityRefPredicates.getOrElse(pred, target.etype)
      ObrRecord(surface, pred, hint, e.name.split(' ').toSeq ++ e.attrs.values.take(2), tid)
    }
  }

  // ------------------------------------------------------------ live feeds

  /** A live streaming event (sports score): uniquely identified, but with
    * *textual* references to stable entities that need resolution (§4.1).
    */
  final case class LiveEvent(eventId: String, kind: String,
                             homeRef: String, awayRef: String, venueRef: String,
                             payload: Map[String, String], ts: Long)

  def liveEvents(u: Universe, n: Int, seed: Long = 17): Seq[LiveEvent] = {
    val rnd = new Random(seed)
    val teams = u.byType.getOrElse("team", Seq.empty)
    require(teams.size >= 2, "need teams for live events")
    (0 until n).map { i =>
      val h = teams(rnd.nextInt(teams.size))
      val a = teams((rnd.nextInt(teams.size - 1) + teams.indexOf(h) + 1) % teams.size)
      val venue = u.byId(h.refs("home_city"))
      LiveEvent(s"game:$i", "sports_game",
        homeRef = h.allNames(rnd.nextInt(h.allNames.size)),
        awayRef = a.name,
        venueRef = venue.name,
        payload = Map("home_score" -> rnd.nextInt(120).toString,
                      "away_score" -> rnd.nextInt(120).toString,
                      "status" -> (if (rnd.nextBoolean()) "live" else "final")),
        ts = 1600000000L + i)
    }
  }

  // ---------------------------------------------------- DataFrame adapters

  /** Aligned source records as entity-centric rows ([[Export.RowSchema]]),
    * the rows the ingestion platform's delta and export stages consume.
    */
  def recordsToRows(spark: SparkSession, recs: Seq[SourceRecord]): DataFrame = {
    val rows = recs.map(r => Row(r.id, r.source, r.trust, r.etype, r.name,
      r.attrs, r.refNames, r.compositePred.orNull, r.composites, r.volatile))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows, math.max(1, rows.size / 2000 + 1)), Export.RowSchema)
  }
}
